"""`verify`: the twelve identity suites, as `starkit verify all` runs them.

One op is one suite call, in the order of `verify.SUITES`.  The benchmark
seed reaches the three seeded suites (`equivalence`, `classical-limit`,
`heisenberg-weyl`).  Each round starts from cold oscillator caches, as a
fresh `starkit verify all` process would.
"""

import checks as ck
from harness import Op
from workloads import Workload

# The one check row that fails by design (acceptance criterion 11).
KNOWN_FAILING_ROW = "spectral sum (n <= 60) matches U(0.3 - 0.2i)"

SEEDED = ("equivalence", "classical-limit", "heisenberg-weyl")


def row_ratio(row):
    if row.relation == "<=":
        return row.value / row.threshold
    return row.threshold / row.value if row.value else float("inf")


def check_rows(rows):
    """(worst ratio, defect) over a suite's rows."""
    ratio = ck.worst(row_ratio(r) for r in rows)
    failing = {r.name for r in rows if not r.passed}
    defect = ck.CRITERION_11 if failing == {KNOWN_FAILING_ROW} else ""
    return ratio, defect


class Verify(Workload):
    name = "verify"

    def before_round(self):
        for fn in self._caches:
            fn.cache_clear()

    def make_round(self, rng, index):
        verify = self.sk.verify
        seeds = dict(zip(SEEDED, (int(s) for s in rng.integers(0, 2**31, 3))))
        ops = []
        for suite in verify.SUITES:
            fn = verify.SUITES[suite][1]
            kwargs = {"seed": seeds[suite]} if suite in SEEDED else {}
            ops.append(Op(suite, (suite, tuple(kwargs.items())),
                          lambda fn=fn, kwargs=kwargs: fn(**kwargs),
                          check_rows, span=f"verify.{suite}"))
        return ops
