"""`grid`: `starkit evolve` and `starkit grid` scenarios run through `cli.main`.

Each round runs seven scenarios on the README 201x201 lattice over
[-6,6]^2: a `grid` export of a monomial-Gaussian sum, classical `evolve`
runs of a monomial-Gaussian sum, of three ladder off-diagonal states with
n + n' = 12 and of the Wigner state n = 12, and a `grid` export of the
Wigner state n = 24 (325 terms sharing one exponent).  Times, damping, coefficients,
exponents and the off-diagonal split are seeded.  Every output is read
back with `load_grid`.  Wigner outputs are checked against the value
recurrence `sho_wigner_values` at the flow-mapped nodes, the other states
against scalar `evaluate` of the initial symbol on a node subset.
"""

import contextlib
import io
import json
import os

import numpy as np

import checks as ck
from harness import Op
from workloads import Workload

LATTICE = (-6.0, 6.0, -6.0, 6.0, 201, 201)
# Every tenth node per axis, corners included, for scalar evaluation.
SUBSET = np.linspace(0, 200, 21).astype(int)
# Off-diagonal states (n + n' = 12, seeded split) evolved per round; the
# round's median op falls among them.
OFFDIAGONAL_PER_ROUND = 3
# Above this level the expanded Wigner state has no degree guard, and its
# cancellation is a documented defect.
WIGNER_GUARD = 12


class Grid(Workload):
    name = "grid"
    # The process's peak RSS settles in the third round (heap growth from
    # parsing and exporting); a run that stopped after two read ~5% lower.
    min_rounds = 3

    def _spec(self):
        return self.sk.symbols.GridSpec(*LATTICE)

    def _path(self, index, slot, k, fmt):
        return os.path.join(self.workdir, f"r{index}-{slot}-{k}.{fmt}")

    def _cli_op(self, kind, argv, outputs, checkers, inputs):
        """Run `starkit <argv>`, load every output, check each grid."""
        sk = self.sk

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = sk.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"starkit {argv[0]} exited with {code}")
            return [sk.numerics.load_grid(path) for path in outputs]

        def check(grids):
            results = [fn(g) for fn, g in zip(checkers, grids)]
            failing = [d for r, d in results if not r <= 1.0]
            defect = failing[0] if failing and all(failing) else ""
            return ck.worst(r for r, _ in results), defect

        return Op(kind, inputs, run, check)

    def _class_checker(self, state, t, params):
        sk = self.sk
        sym = sk.symbols

        def checker(grid):
            P, Q = self._spec().meshes()
            P, Q = P[np.ix_(SUBSET, SUBSET)], Q[np.ix_(SUBSET, SUBSET)]
            Pm, Qm = ck.mapped_nodes(sk.dynamics.flow_map(-t, params), P, Q)
            want = ck.scalar_values(sym, state, Pm, Qm)
            got = grid.values[np.ix_(SUBSET, SUBSET)]
            return ck.values_ratio(got, want, ck.TOL_GRID_CLASS), ""

        return checker

    def _wigner_checker(self, n, t, params):
        sk = self.sk
        defect = ck.WIGNER_CANCELLATION if n > WIGNER_GUARD else ""

        def checker(grid):
            P, Q = self._spec().meshes()
            Pm, Qm = ck.mapped_nodes(sk.dynamics.flow_map(-t, params), P, Q)
            want = sk.oscillator.sho_wigner_values(n, Pm, Qm)[n]
            return ck.values_ratio(grid.values, want, ck.TOL_GRID_WIGNER), defect

        return checker

    def _evolve_op(self, index, slot, text, times, params, fmt, checker,
                   kind=None):
        outputs = [self._path(index, slot, k, fmt) for k in range(len(times))]
        doc = {"params": {"gamma": params.gamma}, "initial": text,
               "evolution": "classical", "times": times,
               "grid": dict(zip(("q_min", "q_max", "p_min", "p_max", "nq",
                                 "np"), LATTICE)),
               "outputs": [{"time": t, "format": fmt, "path": path}
                           for t, path in zip(times, outputs)]}
        scenario = os.path.join(self.workdir, f"r{index}-{slot}.json")
        with open(scenario, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return self._cli_op(kind or f"evolve.{slot}", ["evolve", scenario],
                            outputs,
                            [checker(t) for t in times],
                            (slot, text, tuple(times), params.gamma, fmt))

    def _grid_op(self, index, slot, text, fmt, checker):
        out = self._path(index, slot, 0, fmt)
        grid_flag = "--grid=" + ",".join(f"{x:g}" for x in LATTICE)
        argv = ["grid", grid_flag, "--format", fmt, "--out", out, "--", text]
        return self._cli_op(f"grid.{slot}", argv, [out], [checker],
                            (slot, text, fmt))

    def make_round(self, rng, index):
        sk = self.sk
        sym, osc, fmt_symbol = sk.symbols, sk.oscillator, sk.expr.format_symbol
        zero = sym.Params()

        def times(k):
            return sorted(float(t) for t in rng.uniform(0.25, 1.5, k))

        def params():
            return sym.Params(gamma=float(rng.uniform(0.05, 0.3)))

        ops = []
        state = ck.random_class_member(sym, rng, ((0, 0), (1, 0), (0, 2)), 2)
        ops.append(self._grid_op(index, "class", fmt_symbol(state), "csv",
                                 self._class_checker(state, 0.0, zero)))

        state = ck.random_class_member(sym, rng, ((0, 0), (2, 0), (1, 1), (0, 1)), 2)
        p = params()
        ops.append(self._evolve_op(
            index, "class", fmt_symbol(state), times(3), p, "json",
            lambda t, s=state, p=p: self._class_checker(s, t, p)))

        for k in range(OFFDIAGONAL_PER_ROUND):
            n = int(rng.integers(0, 13))
            state = osc.sho_offdiagonal(n, 12 - n)
            p = params()
            ops.append(self._evolve_op(
                index, f"offdiagonal{k}", fmt_symbol(state), times(1), p, "csv",
                lambda t, s=state, p=p: self._class_checker(s, t, p),
                kind="evolve.offdiagonal"))

        p = params()
        ops.append(self._evolve_op(
            index, "wigner12", fmt_symbol(osc.sho_wigner_eigenstate(12)),
            times(1), p, "json", lambda t, p=p: self._wigner_checker(12, t, p)))

        ops.append(self._grid_op(
            index, "wigner24", fmt_symbol(osc.sho_wigner_eigenstate(24)), "csv",
            self._wigner_checker(24, 0.0, zero)))
        return ops
