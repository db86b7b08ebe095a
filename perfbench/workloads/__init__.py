"""The benchmark's workloads and the base class they share."""

import os

import numpy as np


class Workload:
    """A seeded stream of rounds of ops against one starkit process.

    `sk` is the imported starkit package.  Ops look functions up on the
    layer modules when they run, so the tracer's rebinding reaches them.
    Round `i` is generated from (seed, i) alone and kept for replay.
    """

    name = ""
    min_rounds = 1

    def __init__(self, sk, seed, workdir):
        self.sk = sk
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._rounds = {}
        osc = sk.oscillator
        self._caches = (osc.sho_wigner_eigenstate, osc.sho_offdiagonal)

    def rng(self, *stream):
        return np.random.default_rng([self.seed % (1 << 64), *stream])

    def round(self, index):
        if index not in self._rounds:
            self._rounds[index] = self.make_round(self.rng(0, index), index)
        return self._rounds[index]

    def prepare(self):
        """Set-up: cold caches, the first round's inputs, then warm-up."""
        for fn in self._caches:
            fn.cache_clear()
        self._rounds = {}
        self.round(0)
        self.warm_up()

    def before_round(self):
        """Hook run before each round, outside the op timers."""

    def warm_up(self):
        """Work done once in set-up so lazy state is ready before timing."""

    def make_round(self, rng, index):
        raise NotImplementedError


def registry():
    from workloads import algebra, grid, rk4, verify
    return {w.name: w for w in (algebra.Algebra, grid.Grid, rk4.Rk4,
                                verify.Verify)}
