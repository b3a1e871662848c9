"""A fixed pure-Python probe of the machine's speed.

The machine this benchmark was tuned on is a few cores of a shared host:
the same pure-Python loop runs up to half again as slow in some minutes
as in others, and CPU time moves with wall time.  So every timed run
interleaves this probe with its operations (one probe after every fixed
number of operations, so both see the same phases) and reports its times
scaled by ``REFERENCE_NS / (mean time of the probes around them)``: the
time the operations would have taken on the machine at its reference
speed.  A change to the program moves the operations and not the probe.

The probe depends on nothing in ``dlecorr``: it evaluates a fixed set of
modal terms, held as plain tuples, on three fixed 3-world frames, with
the recursion, tuple and dict traffic and small allocations that the
library's own code is made of.
"""

from __future__ import annotations

import time

# Mean time of one probe() on the reference machine (a shared 2-core
# x86-64 host, Python 3.11) in one of its faster phases, in ns.
REFERENCE_NS = 3_000_000

_N = 3
_FULL = (1 << _N) - 1
_FRAMES = tuple(tuple((code >> (_N * x)) & _FULL for x in range(_N))
                for code in range(5, 1 << (_N * _N), 170))
_TERMS = (
    ("le", ("box", ("var", "p")), ("box", ("box", ("var", "p")))),
    ("le", ("dia", ("box", ("var", "p"))), ("box", ("dia", ("var", "p")))),
    ("le", ("and", ("var", "p"), ("dia", ("var", "q"))),
     ("or", ("box", ("var", "q")), ("dia", ("and", ("var", "p"), ("top",))))),
)


def _eval(t, rows, env, memo):
    key = (t, env["p"], env["q"])
    hit = memo.get(key)
    if hit is not None:
        return hit
    op = t[0]
    if op == "var":
        out = env[t[1]]
    elif op == "top":
        out = _FULL
    elif op == "and":
        out = _eval(t[1], rows, env, memo) & _eval(t[2], rows, env, memo)
    elif op == "or":
        out = _eval(t[1], rows, env, memo) | _eval(t[2], rows, env, memo)
    else:
        a = _eval(t[1], rows, env, memo)
        if op == "dia":
            out = sum(1 << x for x in range(_N) if rows[x] & a)
        else:
            out = sum(1 << x for x in range(_N) if rows[x] & ~a & _FULL == 0)
    memo[key] = out
    return out


def _kernel() -> int:
    valid = 0
    for rows in _FRAMES:
        for _, lhs, rhs in _TERMS:
            memo: dict = {}
            ok = True
            for p in range(_FULL + 1):
                for q in range(_FULL + 1):
                    env = {"p": p, "q": q}
                    if _eval(lhs, rows, env, memo) & ~_eval(rhs, rows, env, memo):
                        ok = False
            valid += ok
    return valid


_EXPECTED = _kernel()


class Probe:
    """Probe times of one run."""

    def __init__(self):
        self.times_ns: list[int] = []

    def __call__(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter_ns()
            if _kernel() != _EXPECTED:
                raise AssertionError("speed probe computed a different answer")
            self.times_ns.append(time.perf_counter_ns() - t0)

    def mean_ns(self) -> float:
        return sum(self.times_ns) / len(self.times_ns)

    def scale(self) -> float:
        """Factor that turns a time of this run into reference time."""
        return REFERENCE_NS / self.mean_ns()

    def local_scales(self, half_window: int) -> list[float]:
        """Factor for the operations that follow probe j, from the mean of
        the probes j - half_window + 1 .. j + half_window."""
        sums = [0]
        for t in self.times_ns:
            sums.append(sums[-1] + t)
        n = len(self.times_ns)
        out = []
        for j in range(n):
            lo, hi = max(0, j - half_window + 1), min(n, j + half_window + 1)
            out.append(REFERENCE_NS * (hi - lo) / (sums[hi] - sums[lo]))
        return out
