"""Synthetic curve processes driven by basis-coefficient recursions.

Operators act on Fourier coefficient vectors, innovations have
independent components with chosen standard deviations, and curves are
assembled on a midpoint grid.  Includes the truncation bias bound for
known-operator autoregressions.
"""

import contextlib
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .curves import FunctionalDataset, Grid, _readonly, make_fourier_basis, synthesize
from .errors import NonstationaryError, _at_least, _checked, _numbers

PSI_MATRICES = {
    "psi1": np.array(
        [
            [-0.05, -0.23, 0.76],
            [0.80, -0.05, 0.04],
            [0.04, 0.76, 0.23],
        ]
    ),
    "psi2": 0.8 * np.eye(3),
}


def sigma_scheme(name: str, D: int) -> np.ndarray:
    """Component standard deviations: 's1' gives 1/l, 's2' gives 1.2^-l."""
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    ell = np.arange(1, D + 1, dtype=float)
    if name == "s1":
        return 1.0 / ell
    if name == "s2":
        return 1.2 ** (-ell)
    raise ValueError(f"unknown sigma scheme {name!r}; use 's1' or 's2'")


def fixed_psi(name: str) -> np.ndarray:
    """Reference 3 x 3 operators 'psi1' (dense) and 'psi2' (0.8 I)."""
    try:
        return PSI_MATRICES[name].copy()
    except KeyError:
        raise ValueError(f"unknown operator {name!r}; use 'psi1' or 'psi2'") from None


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value; non-finite entries raise ValueError."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("spectral norm needs finite entries")
    return float(np.linalg.norm(a, 2))


def random_operator(D: int, sigma: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random coefficient operator scaled to unit spectral norm.

    Entry (l, l') is drawn with standard deviation sigma_l * sigma_l',
    then the matrix is divided by its largest singular value.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (D,) or np.any(sigma <= 0.0):
        raise ValueError(f"sigma must be {D} positive values")
    while True:
        a = rng.normal(size=(D, D)) * np.outer(sigma, sigma)
        norm = spectral_norm(a)
        if norm > 0.0:
            return a / norm


# every key of a process spec's JSON, with its rule (see errors._checked)
_SPEC = {"kind": str, "D": _at_least(1), "sigma": _numbers(), "ar": list, "ma": dict,
         "burn_in": _at_least(0)}


@dataclass(frozen=True)
class ProcessSpec:
    """Coefficient-space recursion defining a curve process.

    kind is 'far', 'fma' or 'farma'.  ar lists the autoregressive
    operators Psi_1..Psi_p at consecutive lags; ma maps explicit lags to
    moving-average operators.  sigma holds the innovation standard
    deviations per component.
    """

    kind: str
    D: int
    sigma: np.ndarray
    ar: tuple = ()
    ma: dict = field(default_factory=dict)
    burn_in: int = 200

    def __post_init__(self):
        if self.kind not in ("far", "fma", "farma"):
            raise ValueError(f"kind must be 'far', 'fma' or 'farma', got {self.kind!r}")
        # D and burn_in by their from_json rules, so a whole float becomes an int
        sizes = {"D": self.D, "burn_in": self.burn_in}
        for key, value in _checked(sizes, {key: _SPEC[key] for key in sizes}, "process spec",
                                   required=sizes).items():
            object.__setattr__(self, key, value)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (self.D,) or np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError(f"sigma must be {self.D} positive finite values")
        ar = tuple(_operator("ar", m, self.D) for m in self.ar)
        ma = {int(k): _operator("ma", v, self.D) for k, v in dict(self.ma).items()}
        for lag in ma:
            if lag < 1:
                raise ValueError(f"moving-average lags must be >= 1, got {lag}")
        if self.kind == "far" and (not ar or ma):
            raise ValueError("'far' needs ar operators and no ma operators")
        if self.kind == "fma" and (ar or not ma):
            raise ValueError("'fma' needs ma operators and no ar operators")
        if self.kind == "farma" and (not ar or not ma):
            raise ValueError("'farma' needs both ar and ma operators")
        if ar:
            rho = _companion_spectral_radius(ar)
            if not rho < 1.0:
                raise NonstationaryError(
                    f"autoregressive part has companion spectral radius {rho:.6f} >= 1"
                )
        object.__setattr__(self, "sigma", _readonly(sigma))
        object.__setattr__(self, "ar", tuple(_readonly(m) for m in ar))
        object.__setattr__(self, "ma", {k: _readonly(v) for k, v in ma.items()})

    @property
    def p(self) -> int:
        return len(self.ar)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "D": self.D,
            "sigma": self.sigma.tolist(),
            "ar": [m.tolist() for m in self.ar],
            "ma": {str(k): v.tolist() for k, v in sorted(self.ma.items())},
            "burn_in": self.burn_in,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProcessSpec":
        """The spec a to_json object describes; None counts as absent.

        kind, D and sigma are required, and a key that is not a field is an
        error.  Each key is parsed by its rule in _SPEC: D must be an integer
        >= 1 and burn_in one >= 0 (a whole float such as 3.0 passes), sigma a
        list of numbers, ar a list and ma a dict, and every ma lag an integer;
        a ValueError names the key.
        """
        args = _checked(json.loads(text), _SPEC, "process spec", required=("kind", "D", "sigma"))
        lags = {}
        for lag, op in args.get("ma", {}).items():
            try:
                lags[int(lag)] = op
            except ValueError:
                raise ValueError(f"process spec ma lag {lag!r} must be an integer") from None
        return cls(kind=args["kind"], D=args["D"], sigma=np.array(args["sigma"], dtype=float),
                   ar=args.get("ar", []), ma=lags, burn_in=args.get("burn_in", 200))


def _operator(key: str, value, D: int) -> np.ndarray:
    """An ar or ma entry as a D x D matrix of finite floats; a ValueError names the key otherwise."""
    with contextlib.suppress(TypeError, ValueError):
        mat = np.asarray(value, dtype=float)
        if mat.shape == (D, D) and np.all(np.isfinite(mat)):
            return mat
    raise ValueError(f"process spec key {key!r} holds {value!r}, "
                     f"not a {D} x {D} matrix of finite numbers")


def _companion_spectral_radius(ar) -> float:
    p = len(ar)
    D = ar[0].shape[0]
    comp = np.zeros((p * D, p * D))
    comp[:D] = np.hstack(ar)
    if p > 1:
        comp[D:, : (p - 1) * D] = np.eye((p - 1) * D)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def simulate(spec: ProcessSpec, n: int, grid: Grid, rng: np.random.Generator) -> FunctionalDataset:
    """Draw n curves from the recursion after discarding the burn-in.

    Coefficient vectors follow
    c_k = sum_j Psi_j c_{k-j} + a_k + sum_l Theta_l a_{k-l}
    with a_k having independent components scaled by spec.sigma, started
    from zeros.
    """
    return synthesize(_coefficients([spec], n, [rng])[0], make_fourier_basis(spec.D, grid))


def _coefficients(specs, n: int, rngs) -> list:
    """The (n, D) coefficient vectors of B recursions stepped together, one generator each.

    The specs must share D, the autoregressive and moving-average lags and
    the burn-in.  Each generator draws its own innovations exactly as a
    lone :func:`simulate` would, and each step makes one stacked product
    per lag, so every recursion gets the same bits as on its own.  The B
    results are separate arrays, so a caller can release each once used.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = specs[0]
    D, p, lags, burn_in = spec.D, spec.p, sorted(spec.ma), spec.burn_in
    if any((s.D, s.p, sorted(s.ma), s.burn_in) != (D, p, lags, burn_in) for s in specs):
        raise ValueError("stacked specs must share D, their lags and burn_in")
    q = max(lags, default=0)
    steps = burn_in + n
    # step-major, so each step's (B, D) rows are contiguous
    coeffs = np.zeros((steps + p, len(specs), D))
    # without moving-average terms the innovations are drawn straight into the coefficients
    noise = np.empty((steps + q, len(specs), D)) if q else coeffs[p:]
    for b, (s, rng) in enumerate(zip(specs, rngs)):
        np.multiply(rng.normal(size=(steps + q, D)), s.sigma, out=noise[:, b])
    if q:
        coeffs[p:] = noise[q:]
    if len(specs) == 1:  # one recursion steps 1-D rows
        rows, shocks = list(coeffs[:, 0]), noise[:, 0]
    else:  # (B, D, 1) row views: one np.matmul runs every recursion's gemv for a lag
        rows, shocks = list(coeffs[..., None]), noise[..., None]
    # (rows read, their offset from the step, operators) per lag, autoregressive terms first;
    # an all-zero operator adds exact zeros, so skipping it changes no bit
    terms = [(rows, p - j, [s.ar[j - 1] for s in specs]) for j in range(1, p + 1)]
    terms += [(shocks, q - lag, [s.ma[lag] for s in specs]) for lag in lags]
    # each term's product is bound once: the operator's own dot (np.dot's product without its
    # Python dispatcher) for one recursion, np.matmul on the stacked operators for several
    terms = [(seq, shift, ops[0].dot if len(ops) == 1 else partial(np.matmul, np.stack(ops)))
             for seq, shift, ops in terms if np.any(ops)]
    term = np.empty_like(rows[0])  # every product lands here, so the loop allocates nothing
    for k in range(steps):
        c = rows[k + p]
        for seq, shift, product in terms:
            c += product(seq[k + shift], out=term)
    return [np.ascontiguousarray(coeffs[p + burn_in :, b]) for b in range(len(specs))]


def _coupled_far1(n: int, rngs, psi=((0.6, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.4)),
                  b=((0.9, 0.0), (0.0, 0.7), (0.35, 0.35)), sigma_y=(1.0, 0.7, 0.5),
                  rho: float = 0.5, sigma_r: float = 0.8, burn_in: int = 200) -> list:
    """(coefficients, covariates) per generator of c_k = Psi c_{k-1} + B r_{k-1} + a_k.

    The covariate r_k = rho r_{k-1} + e_k carries signal at lag one.  The pair
    is one VAR(1) on (r_k, c_k) stepped by _coefficients; r comes first, so
    each step draws the covariate's normals before the curve's.
    """
    psi, b = np.asarray(psi, dtype=float), np.asarray(b, dtype=float)
    D, r = b.shape
    op = np.block([[rho * np.eye(r), np.zeros((r, D))], [b, psi]])
    sigma = np.concatenate([np.full(r, sigma_r), sigma_y])
    spec = ProcessSpec(kind="far", D=r + D, sigma=sigma, ar=(op,), burn_in=burn_in)
    return [(np.ascontiguousarray(s[:, r:]), np.ascontiguousarray(s[:, :r]))
            for s in _coefficients([spec] * len(rngs), n, rngs)]


def bias_bound(ar_operators, eigenvalues, d: int) -> float:
    """Mean squared loss bound gap for truncating a known autoregression.

    With psi_{j;d}^2 equal to the summed squared entries of columns
    d+1..D of the j-th operator, returns
    (1 + (sum_j psi_{j;d})^2) * sum_{l > d} lambda_l.
    """
    ops = [np.asarray(m, dtype=float) for m in ar_operators]
    lams = np.asarray(eigenvalues, dtype=float)
    if not ops:
        raise ValueError("need at least one autoregressive operator")
    D = ops[0].shape[0]
    for m in ops:
        if m.shape != (D, D):
            raise ValueError(f"operators must share shape ({D}, {D}), got {m.shape}")
    if lams.ndim != 1 or lams.size < D:
        raise ValueError(f"need at least {D} eigenvalues, got shape {lams.shape}")
    if np.any(lams < 0.0):
        raise ValueError("eigenvalues must be nonnegative")
    if not 1 <= d <= D:
        raise ValueError(f"d must be in 1..{D}, got {d}")
    psi_sum = sum(float(np.sqrt(np.sum(m[:, d:] ** 2))) for m in ops)
    tail = float(np.sum(lams[d:]))
    return (1.0 + psi_sum**2) * tail
