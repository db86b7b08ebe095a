"""`rk4`: the RK4 grid oracle on seeded smooth Gaussians.

Each op samples a seeded Gaussian on a lattice and advects it with
`numerics.rk4_evolve("damped")` at dt = 1e-3 under a seeded gamma.  A
round covers a 201x201 lattice (0.65 MB per complex array, inside a 2 MiB
L2 share) and a 401x401 lattice (2.6 MB, outside it).  The output is
checked against the exact classical flow sampled on the same lattice.
"""

import checks as ck
from harness import Op
from workloads import Workload

DT = 1e-3
# (nodes per axis, span) of the ops in one round.
SHAPES = ((201, 0.02), (201, 0.05), (401, 0.02))


class Rk4(Workload):
    name = "rk4"

    def warm_up(self):
        numerics = self.sk.numerics
        g0 = numerics.sample(self.sk.symbols.gaussian(1.0, app=-1.0, aqq=-1.0),
                             self._spec(201))
        numerics.rk4_evolve(g0, "damped", DT, DT, self.sk.symbols.Params())

    def _spec(self, n):
        return self.sk.symbols.GridSpec(-6.0, 6.0, -6.0, 6.0, n, n)

    def make_round(self, rng, index):
        sk = self.sk
        sym = sk.symbols
        ops = []
        for n, span in SHAPES:
            spec = self._spec(n)
            params = sym.Params(gamma=float(rng.uniform(0.0, 0.4)))
            state = sym.gaussian(
                1.0, app=float(rng.uniform(-1.0, -0.6)),
                aqq=float(rng.uniform(-1.0, -0.6)),
                apq=float(rng.uniform(-0.1, 0.1)),
                bp=float(rng.uniform(-0.5, 0.5)),
                bq=float(rng.uniform(-0.5, 0.5)))

            def run(state=state, spec=spec, span=span, params=params):
                g0 = sk.numerics.sample(state, spec)
                return sk.numerics.rk4_evolve(g0, "damped", span, DT, params)

            def check(grid, state=state, spec=spec, span=span, params=params):
                exact = sk.numerics.sample(
                    sk.dynamics.evolve_classical(state, span, params), spec)
                return (sk.numerics.grid_distance(grid, exact) / ck.TOL_RK4,
                        "")

            ops.append(Op(f"rk4.{n}.{round(span / DT)}",
                          (state, n, span, params), run, check))
        return ops
