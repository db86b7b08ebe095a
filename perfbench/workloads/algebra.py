"""`algebra`: a seeded stream of exact symbolic requests.

Each round sends the same op kinds with parameters drawn per op: star
products of all four kinds on polynomial pairs, polynomial x
monomial-Gaussian pairs and Gaussian-sum pairs; transition images of
polynomials, class members and Wigner states; c-equivalence residuals;
truncated star exponentials; ladder-built off-diagonal states; the damped
right-hand side of a classically evolved state; and parse/format round
trips.  Wigner states use fixed levels per round, so rounds cost alike.
"""

import checks as ck
from harness import Op
from workloads import Workload

PRODUCTS = ("moyal", "damped", "standard", "husimi")
TRANSITIONS = ("damped", "standard", "husimi")
# Wigner levels per round for the damped and husimi transition images.
WIGNER_LEVELS = {"damped": (4, 8, 12), "husimi": (2, 5, 8)}
# Ladder off-diagonal states per round (n + n' <= 12), at a seeded omega.
OFFDIAGONAL = ((6, 6), (9, 2))
REPARSE_LEVEL = 10
STAR_EXP_ORDER = 12


class Algebra(Workload):
    name = "algebra"

    def warm_up(self):
        for n in range(13):
            self.sk.oscillator.sho_wigner_eigenstate(n)

    # -- c-equivalent pairs of products ----------------------------------

    def _relation(self, rng, kind):
        """(U, source, target) with U(f *source g) = U(f) *target U(g),
        for the damped, standard and husimi transitions."""
        st, tr = self.sk.star, self.sk.transition
        if kind == "damped":
            gamma = float(rng.uniform(0.05, 0.3))
            return (tr.damped_transition(gamma), st.moyal_star(),
                    st.damped_star(gamma))
        if kind == "standard":
            return tr.standard_transition(), st.standard_star(), st.moyal_star()
        s = float(rng.uniform(0.8, 1.25))
        return tr.husimi_transition(s), st.moyal_star(), st.husimi_star(s)

    def _star_op(self, product, operands, f, g, rng):
        """f *product g, checked by c-equivalence with U applied forward
        only (the damped and husimi inverses need not exist on Gaussians):
        a moyal or standard product is the source side of a relation and
        U(f * g) is compared with U(f) *target U(g); a damped or husimi
        product is the target side, its operands are U(f), U(g), and the
        result is compared with U(f *source g)."""
        sk = self.sk
        relation = {"moyal": "damped"}.get(product, product)
        U, source, target = self._relation(rng, relation)
        pre = None
        if product in ("moyal", "standard"):
            star = source
        else:
            star = target
            pre, f, g = (f, g), sk.transition.apply(U, f), sk.transition.apply(U, g)

        def run():
            return sk.star.star_product(f, g, star)

        def check(h):
            tr, st = sk.transition, sk.star
            if pre is None:
                got = tr.apply(U, h)
                want = st.star_product(tr.apply(U, f), tr.apply(U, g), target)
            else:
                got = h
                want = tr.apply(U, st.star_product(*pre, source))
            return ck.lattice_ratio(sk.symbols, got, want,
                                    ck.TOL_EQUIVALENCE), ""

        return Op(f"star.{operands}.{product}", (product, f, g, star), run,
                  check)

    def _equivalence_op(self, rng, kind):
        sk = self.sk
        U, source, target = self._relation(rng, kind)
        f = ck.random_polynomial(sk.symbols, rng, ck.POLY4)
        g = ck.random_polynomial(sk.symbols, rng, ck.POLY4B)

        def run():
            return sk.transition.check_equivalence(f, g, source, target, U)

        return Op(f"equivalence.{kind}", (f, g, source, target, U), run,
                  lambda res: (res / ck.TOL_EQUIVALENCE, ""))

    # -- transition images ------------------------------------------------

    def _apply_op(self, rng, kind, label, f):
        """U(f), checked by U^-1(U(f)) = f."""
        sk = self.sk
        U = self._relation(rng, kind)[0]

        def run():
            return sk.transition.apply(U, f)

        def check(h):
            back = sk.transition.apply(sk.transition.inverse(U), h)
            return ck.lattice_ratio(sk.symbols, back, f, ck.TOL_ROUND_TRIP), ""

        return Op(f"apply.{label}.{kind}", (U, f), run, check)

    def _wigner_apply_op(self, rng, kind, n):
        """U(rho_n), the Wigner state fetched from its cache in the op.

        Checked by the eigen equation carried over by c-equivalence:
        U(H) *target U(rho_n) = E_n U(rho_n).
        """
        sk = self.sk
        U, _, target = self._relation(rng, kind)

        def run():
            return sk.transition.apply(U, sk.oscillator.sho_wigner_eigenstate(n))

        def check(h):
            sym, osc = sk.symbols, sk.oscillator
            lhs = sk.star.star_product(sk.transition.apply(U, osc.hamiltonian()),
                                       h, target)
            return ck.lattice_ratio(sym, lhs, sym.scale(h, osc.energy(n)),
                                    ck.TOL_WIGNER), ""

        return Op(f"apply.wigner{n}.{kind}", (U, n), run, check)

    # -- the remaining request kinds -------------------------------------

    def _star_exp_op(self, rng, kind):
        """exp_*(-i t H / hbar) truncated at STAR_EXP_ORDER, checked against
        the closed-form (damped) propagator; at t <= 0.06 the truncation
        tail is below 1e-13 on the lattice."""
        sk = self.sk
        sym, osc = sk.symbols, sk.oscillator
        t = float(rng.uniform(0.02, 0.06))
        params = sym.Params(gamma=float(rng.uniform(0.05, 0.3))
                            if kind == "damped" else 0.0)
        star = (sk.star.damped_star(params.gamma, params) if kind == "damped"
                else sk.star.moyal_star(params))
        f = sym.scale(osc.hamiltonian(params), -1j * t / params.hbar)

        def run():
            return sk.star.star_exp_truncated(f, star, STAR_EXP_ORDER)

        def check(e):
            exact = (osc.damped_propagator(t, params) if kind == "damped"
                     else osc.undamped_propagator(t, params))
            return ck.lattice_ratio(sym, e, exact, ck.TOL_PROPAGATOR), ""

        return Op(f"star_exp.{kind}", (f, star), run, check)

    def _offdiagonal_op(self, rng, n, nprime):
        sk = self.sk
        params = sk.symbols.Params(omega=float(rng.uniform(0.8, 1.25)))

        def run():
            return sk.oscillator.sho_offdiagonal(n, nprime, params)

        def check(rho):
            osc, st, sym = sk.oscillator, sk.star, sk.symbols
            H = osc.hamiltonian(params)
            star = st.moyal_star(params)
            left = ck.lattice_ratio(sym, st.star_product(H, rho, star),
                                    sym.scale(rho, osc.energy(n, params)),
                                    ck.TOL_WIGNER)
            right = ck.lattice_ratio(sym, st.star_product(rho, H, star),
                                     sym.scale(rho, osc.energy(nprime, params)),
                                     ck.TOL_WIGNER)
            return ck.worst((left, right)), ""

        return Op("offdiagonal", (n, nprime, params), run, check)

    def _flow_rhs_op(self, rng):
        sk = self.sk
        sym = sk.symbols
        params = sym.Params(gamma=float(rng.uniform(0.0, 0.4)))
        t = float(rng.uniform(0.2, 2.0))
        rho0 = ck.random_class_member(sym, rng)

        def run():
            rho = sk.dynamics.evolve_classical(rho0, t, params)
            return rho, sk.dynamics.damped_rhs(rho, params)

        def check(out):
            rho, rhs = out
            dyn, st, osc = sk.dynamics, sk.star, sk.oscillator
            bracket = sym.scale(st.bracket(rho, osc.hamiltonian(params),
                                           params.gamma, params), -1.0)
            r_rhs = ck.lattice_ratio(sym, rhs, bracket, ck.TOL_BRACKET)
            P, Q = sym.SAMPLE_SPEC.meshes()
            Pm, Qm = ck.mapped_nodes(dyn.flow_map(-t, params), P, Q)
            r_flow = ck.values_ratio(sym.evaluate_grid(rho, P, Q),
                                     ck.scalar_values(sym, rho0, Pm, Qm),
                                     ck.TOL_FLOW)
            return ck.worst((r_rhs, r_flow)), ""

        return Op("flow_rhs", (rho0, t, params), run, check)

    def _reparse_op(self, label, f):
        sk = self.sk

        def run():
            return sk.expr.parse(sk.expr.format_symbol(f))

        def check(g):
            return ck.lattice_ratio(sk.symbols, g, f, ck.TOL_REPARSE), ""

        return Op(f"reparse.{label}", (f,), run, check)

    # -- one round -------------------------------------------------------

    def make_round(self, rng, index):
        sym, osc = self.sk.symbols, self.sk.oscillator
        ops = []
        for kind in PRODUCTS:
            f = ck.random_polynomial(sym, rng, ck.POLY6)
            g = ck.random_polynomial(sym, rng, ck.POLY6B)
            ops.append(self._star_op(kind, "poly", f, g, rng))
        for kind in PRODUCTS:
            f = ck.random_polynomial(sym, rng, ck.POLY4)
            g = ck.random_class_member(sym, rng)
            ops.append(self._star_op(kind, "poly_gauss", f, g, rng))
        for kind in PRODUCTS:
            f = ck.random_gaussian_sum(sym, rng, 2)
            g = ck.random_gaussian_sum(sym, rng, 2)
            ops.append(self._star_op(kind, "gauss_pair", f, g, rng))
        for kind in TRANSITIONS:
            ops.append(self._apply_op(rng, kind, "poly", ck.random_polynomial(
                sym, rng, ck.POLY6)))
            ops.append(self._apply_op(rng, kind, "class",
                                      ck.random_class_member(sym, rng)))
        for kind, levels in WIGNER_LEVELS.items():
            ops += [self._wigner_apply_op(rng, kind, n) for n in levels]
        ops += [self._equivalence_op(rng, kind) for kind in TRANSITIONS * 2]
        ops += [self._star_exp_op(rng, kind) for kind in ("moyal", "damped")]
        ops += [self._offdiagonal_op(rng, n, nprime)
                for n, nprime in OFFDIAGONAL]
        ops += [self._flow_rhs_op(rng) for _ in range(3)]
        ops.append(self._reparse_op("class", ck.random_class_member(
            sym, rng, ((1, 1), (0, 2), (3, 0)), n_exponents=2)))
        ops.append(self._reparse_op("wigner", osc.sho_wigner_eigenstate(
            REPARSE_LEVEL)))
        return ops
