"""The benchmark's workloads: inputs, references, passes and checks.

Inputs are generated here, from the seed where a workload has one, and
written as text in lcpower's formats into the workload's directory; the
program only ever sees that text.  No reference uses power iteration:

* ``poly21``: the root 100 + sum k t^k that the polynomial is built from;
* ``rand2x2``: the closed-form eigenvalue (tr + sqrt(disc)) / 2, with the
  series square root taken by its coefficient recurrence in numpy;
* ``dense16``: D[0] of the construction A = S D S^-1.

A pass runs one input set through lcpower and writes its output files;
``check`` then judges each solve: converged, eigenvalue within EIG_TOL of
its reference on the check window, and a finite residual reported.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import lcpower
from lcpower import cli, textio

#: Largest coefficient error of an accepted eigenvalue on the check window.
EIG_TOL = 1e-8


def _write(path: Path, text: str):
    path.write_text(text, encoding="ascii")


def _grid(terms, length: int, denominator: int) -> np.ndarray:
    """Coefficients of sum c t^q on the exponent grid k / denominator."""
    out = np.zeros(length)
    for q, c in terms:
        out[int(Fraction(q) * denominator)] += c
    return out


def _series(coeffs, denominator: int, bound) -> lcpower.LCNumber:
    return lcpower.from_terms(
        [(Fraction(k, denominator), c) for k, c in enumerate(coeffs)], bound)


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)[:len(a)]


def _series_sqrt(s: np.ndarray) -> np.ndarray:
    """Square root of a series with s[0] > 0 by the coefficient recurrence
    r_k = (s_k - sum_{0<j<k} r_j r_{k-j}) / (2 r_0)."""
    r = np.zeros_like(s)
    r[0] = math.sqrt(s[0])
    for k in range(1, len(s)):
        r[k] = (s[k] - np.dot(r[1:k], r[k - 1:0:-1])) / (2.0 * r[0])
    return r


def _solve_error(result, reference, window) -> str | None:
    """Why a library solve fails the checks, or None when it passes."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if not result.converged:
        return f"not converged after {result.iterations_used} steps"
    if not lcpower.eq_up_to(result.eigenvalue, reference, window, EIG_TOL):
        return "eigenvalue misses its reference"
    if not math.isfinite(result.residual):
        return "no finite residual reported"
    return None


class LibraryWorkload:
    """Matrices parsed from text and solved with ``lcpower.solve``; a pass
    solves one input set and writes one line per solve."""

    truncation: Fraction
    config: dict
    n_sets = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.matrices = []    # per set: the parsed matrices
        self.references = []  # per set: the reference eigenvalues
        self._results = []

    def _input(self, index: int) -> Path:
        return self.dir / f"set{index}.txt"

    def _reference(self, index: int) -> Path:
        return self.dir / f"set{index}.ref.txt"

    def _output(self, index: int) -> Path:
        return self.dir / f"set{index}.out.txt"

    def generate(self):
        """Input sets as (matrices text, reference texts), from the seed."""
        raise NotImplementedError

    def write_inputs(self):
        for index, (matrices, refs) in enumerate(self.generate()):
            _write(self._input(index), matrices)
            _write(self._reference(index), "\n".join(refs) + "\n")

    def parse(self):
        """Set-up: parse every input text (blank-line separated matrices)."""
        self.matrices = [
            [textio.parse_matrix(block)
             for block in self._input(i).read_text().split("\n\n")]
            for i in range(self.n_sets)]

    def load_references(self):
        self.references = [
            [textio.parse_series(line)
             for line in self._reference(i).read_text().splitlines()]
            for i in range(self.n_sets)]

    def run_pass(self, index: int) -> list:
        cfg = lcpower.SolverConfig(truncation=self.truncation, **self.config)
        times, results = [], []
        for A in self.matrices[index]:
            start = time.perf_counter()
            try:
                result, _trace = lcpower.solve(A, cfg)
            except Exception as exc:  # a failed solve is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                result = exc
            times.append(time.perf_counter() - start)
            results.append(result)
        lines = [f"raised {r!r}" if isinstance(r, Exception) else
                 f"{r.iterations_used} {r.converged} {r.residual!r} "
                 f"{textio.serialize_series(r.eigenvalue)}" for r in results]
        _write(self._output(index), "\n".join(lines) + "\n")
        self._results = results
        return times

    def outputs(self, index: int) -> bytes:
        return self._output(index).read_bytes()

    def check(self, index: int) -> list:
        """(steps, error or None) for each solve of the last pass."""
        return [(getattr(r, "iterations_used", 0), _solve_error(r, ref, self.truncation))
                for r, ref in zip(self._results, self.references[index])]


class Rand2x2(LibraryWorkload):
    """The seeded random 2x2 matrices of acceptance criterion 2: at most
    finite, constant-part dominance ratio <= 0.8, real series entries with
    exponents in (1/2)Z up to the bound.

    Set 0 is the first SET_SIZE accepted draws: at seed 31, the acceptance
    set.  Sets 1..3 are a stratified sample of the same generator: of the
    next POOL accepted draws, the ones at evenly spaced ranks of the ratio
    |mu2/mu1|, dealt round robin.  That ratio sets a solve's step count
    (the steps follow 1/log(1/ratio) with correlation 0.98), so the work of
    sets 1..3 hardly depends on the seed, while a plain draw of 50 moves
    by about 14 % in total steps from seed to seed."""

    name = "rand2x2"
    truncation = Fraction(6)
    config = dict(max_iters=600, tol=1e-12, start="ones")
    SET_SIZE = 50
    POOL = 1500
    n_sets = 4

    @staticmethod
    def draw(rng, bound: int):
        """One draw of the acceptance generator: the entries' term lists and
        the ratio |mu2/mu1|, or None when the draw misses the acceptance
        region.  Consumes the random stream exactly as the acceptance test
        does."""
        base = rng.uniform(-3, 3, (2, 2))
        entries = []
        for i in range(2):
            row = []
            for j in range(2):
                terms = [(Fraction(0), base[i, j])]
                for _ in range(int(rng.integers(0, 3))):
                    den = int(rng.choice([1, 2]))
                    num = int(rng.integers(1, bound * den + 1))
                    terms.append((Fraction(num, den), rng.uniform(-0.3, 0.3)))
                row.append(terms)
            entries.append(row)
        tr0 = base[0, 0] + base[1, 1]
        det0 = base[0, 0] * base[1, 1] - base[0, 1] * base[1, 0]
        disc0 = tr0 * tr0 - 4 * det0
        if disc0 < 1.0:
            return None
        mu1 = (tr0 + np.sqrt(disc0)) / 2
        mu2 = (tr0 - np.sqrt(disc0)) / 2
        if abs(mu1) < abs(mu2):
            mu1, mu2 = mu2, mu1
        if abs(mu1) < 0.5 or abs(mu2) / abs(mu1) > 0.8:
            return None
        return entries, abs(mu2) / abs(mu1)

    @staticmethod
    def closed_form(entries, bound: int) -> np.ndarray:
        """Dominant eigenvalue (tr + sign(tr0) sqrt(tr^2 - 4 det)) / 2 on the
        grid (1/2)Z, coefficients for t^0 .. t^bound."""
        length = 2 * bound + 1
        (a, b), (c, d) = [[_grid(e, length, 2) for e in row] for row in entries]
        tr = a + d
        disc = _series_mul(tr, tr) - 4.0 * (_series_mul(a, d) - _series_mul(b, c))
        sign = 1.0 if tr[0] >= 0 else -1.0
        return (tr + sign * _series_sqrt(disc)) / 2.0

    def _accepted(self, rng, count: int) -> list:
        out = []
        while len(out) < count:
            drawn = self.draw(rng, int(self.truncation))
            if drawn is not None:
                out.append(drawn)
        return out

    def _texts(self, drawn) -> tuple:
        bound = int(self.truncation)
        matrices, refs = [], []
        for entries, _ratio in drawn:
            A = lcpower.LCMatrix([[lcpower.from_terms(e, bound) for e in row]
                                  for row in entries])
            matrices.append(textio.serialize_matrix(A))
            refs.append(textio.serialize_series(
                _series(self.closed_form(entries, bound), 2, bound)))
        return "\n\n".join(matrices) + "\n", refs

    def generate(self):
        rng = np.random.default_rng(self.seed)
        first = self._accepted(rng, self.SET_SIZE)
        pool = sorted(self._accepted(rng, self.POOL), key=lambda d: d[1])
        n = (self.n_sets - 1) * self.SET_SIZE
        picked = [pool[(2 * k + 1) * len(pool) // (2 * n)] for k in range(n)]
        strata = [picked[i::self.n_sets - 1] for i in range(self.n_sets - 1)]
        return [self._texts(drawn) for drawn in [first] + strata]


class Dense16(LibraryWorkload):
    """A dense real 16x16 A = S D S^-1 with a known dominant eigenvalue D[0].

    D[0] has constant part 10, D[1] = 0.6 D[0] as a whole series, and the
    other fourteen constant parts are drawn from U(1, 5).  Every D[k] has
    terms at the exponents EXPONENTS, with denominators 1, 2 and 3, so the
    iterates live on a lattice of spacing 1/6.  S is a random real matrix,
    redrawn until it is well conditioned and the all-ones start has
    components of the same size (within 25 %) along the two leading
    eigenvectors.  The error of the iteration then decays like 0.6^k for
    every seed: the seed changes every coefficient but not the work, which
    is 53 or 54 steps with the same term counts."""

    name = "dense16"
    truncation = Fraction(3)
    config = dict(norm_kind="max", start="ones")
    N = 16
    DENOMINATOR = 6
    EXPONENTS = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(2))

    def generate(self):
        rng = np.random.default_rng(self.seed)
        n, bound, den = self.N, int(self.truncation), self.DENOMINATOR
        diag = np.zeros((n, bound * den + 1))  # D[k] on the lattice k/den
        diag[0, 0] = 10.0
        diag[2:, 0] = rng.uniform(1.0, 5.0, n - 2)
        for q in self.EXPONENTS:
            diag[:, int(q * den)] = rng.uniform(-0.5, 0.5, n)
        diag[1] = 0.6 * diag[0]
        while True:
            S = rng.standard_normal((n, n))
            if np.linalg.cond(S) > 1e3:
                continue
            S_inv = np.linalg.inv(S)
            # start components along each eigenvector, in its own scale
            weights = np.abs(S_inv @ np.ones(n)) * np.linalg.norm(S, axis=0)
            if 0.8 <= weights[1] / weights[0] <= 1.25:
                break
        # A_q = S diag(D_q) S^-1 for every exponent q on the lattice
        coeffs = np.einsum("ik,kq,kj->qij", S, diag, S_inv)
        A = lcpower.LCMatrix([[_series(coeffs[:, i, j], den, bound)
                               for j in range(n)] for i in range(n)])
        reference = textio.serialize_series(_series(diag[0], den, bound))
        return [(textio.serialize_matrix(A) + "\n", [reference])]


def _poly21_texts():
    """The paper's degree-21 polynomial and its dominant root.

    The roots are 100 + sum_{k=1..9} k t^k and 2n + (n/20) t for
    n = 1..20.  The product of the linear factors is expanded with
    lcpower's series arithmetic and each coefficient truncated at t^9
    afterwards, as in the degree-21 demo: the solve then takes 60 steps."""
    bound = 9
    root = lcpower.from_terms([(0, 100)] + [(k, k) for k in range(1, bound + 1)])
    roots = [root] + [lcpower.from_terms([(0, 2 * n), (1, n / 20)])
                      for n in range(1, 21)]
    coeffs = [lcpower.constant(1.0)]  # ascending powers of x; monic
    for r in roots:
        nxt = [lcpower.zero()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    poly = "poly: " + "; ".join(textio.serialize_series(lcpower.truncated(c, bound))
                                for c in coeffs[:-1])
    return poly + "\n", textio.serialize_series(root) + "\n"


class Poly21:
    """The paper's experiment end to end through ``lcpower poly-root``:
    parse, solve, JSON result and CSV error table.  The instance is the
    paper's, so the seed does not change it."""

    name = "poly21"
    n_sets = 1
    ARGS = ("--truncation", "9", "--tol", "1e-14", "--norm", "l2",
            "--start", "ones", "--max-iters", "100")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.poly = workdir / "poly.txt"
        self.root = workdir / "root.txt"
        self.out = workdir / "result.json"
        self.csv = workdir / "trace.csv"
        self.reference = None
        self._exit_code = None

    def write_inputs(self):
        poly, root = _poly21_texts()
        _write(self.poly, poly)
        _write(self.root, root)

    def parse(self):
        """Set-up: parse the texts the CLI reads before it solves."""
        textio.parse_polynomial(self.poly.read_text())
        textio.parse_series(self.root.read_text())

    def load_references(self):
        self.reference = textio.parse_series(self.root.read_text())

    def run_pass(self, index: int) -> list:
        argv = ["poly-root", str(self.poly), *self.ARGS, "--reference",
                str(self.root), "--trace-out", str(self.csv), "--out", str(self.out)]
        start = time.perf_counter()
        try:
            self._exit_code = cli.main(argv)
        except Exception:  # a failed solve is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self._exit_code = None
        return [time.perf_counter() - start]

    def outputs(self, index: int) -> bytes:
        return self.out.read_bytes() + self.csv.read_bytes()

    def check(self, index: int) -> list:
        if self._exit_code is None:
            return [(0, "raised")]
        doc = json.loads(self.out.read_text())
        steps = int(doc["iterations"])
        if self._exit_code != cli.EXIT_OK or not doc["converged"]:
            return [(steps, f"exit code {self._exit_code}, not converged")]
        window = Fraction(doc["config"]["check_window"])
        eigenvalue = textio.parse_series(doc["eigenvalue"])
        if not lcpower.eq_up_to(eigenvalue, self.reference, window, EIG_TOL):
            return [(steps, "eigenvalue misses its reference")]
        if not (isinstance(doc["residual"], float) and math.isfinite(doc["residual"])):
            return [(steps, "no finite residual reported")]
        return [(steps, None)]


WORKLOADS = {cls.name: cls for cls in (Poly21, Rand2x2, Dense16)}
