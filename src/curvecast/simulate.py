"""Synthetic curve processes driven by basis-coefficient recursions.

Operators act on Fourier coefficient vectors, innovations have
independent components with chosen standard deviations, and curves are
assembled on a midpoint grid.  Includes the truncation bias bound for
known-operator autoregressions.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .curves import FunctionalDataset, Grid, _readonly, make_fourier_basis, synthesize
from .errors import NonstationaryError

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
        if self.D < 1:
            raise ValueError(f"D must be >= 1, got {self.D}")
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (self.D,) or np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ValueError(f"sigma must be {self.D} positive finite values")
        ar = tuple(np.asarray(m, dtype=float) for m in self.ar)
        ma = {int(k): np.asarray(v, dtype=float) for k, v in dict(self.ma).items()}
        for mat in list(ar) + list(ma.values()):
            if mat.shape != (self.D, self.D):
                raise ValueError(f"operators must be {self.D} x {self.D}, got {mat.shape}")
        for lag in ma:
            if lag < 1:
                raise ValueError(f"moving-average lags must be >= 1, got {lag}")
        if self.kind == "far" and (not ar or ma):
            raise ValueError("'far' needs ar operators and no ma operators")
        if self.kind == "fma" and (ar or not ma):
            raise ValueError("'fma' needs ma operators and no ar operators")
        if self.kind == "farma" and (not ar or not ma):
            raise ValueError("'farma' needs both ar and ma operators")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
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
        raw = json.loads(text)
        missing = [key for key in ("kind", "D", "sigma") if key not in raw]
        if missing:
            raise ValueError(f"process spec has no {missing[0]!r} key")
        return cls(
            kind=raw["kind"],
            D=int(raw["D"]),
            sigma=np.array(raw["sigma"], dtype=float),
            ar=tuple(np.array(m, dtype=float) for m in raw.get("ar", [])),
            ma={int(k): np.array(v, dtype=float) for k, v in raw.get("ma", {}).items()},
            burn_in=int(raw.get("burn_in", 200)),
        )


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
    if len(specs) == 1:
        # one recursion steps 1-D rows with np.dot, which dispatches faster than np.matmul
        mult, rows, shocks = np.dot, list(coeffs[:, 0]), noise[:, 0]
    else:
        # (B, D, 1) row views: one np.matmul runs every recursion's gemv for a lag
        mult, rows, shocks = np.matmul, list(coeffs[..., None]), noise[..., None]
    # (rows read, their offset from the step, operators) per lag, autoregressive terms first;
    # an all-zero operator adds exact zeros, so skipping it changes no bit
    terms = [(rows, p - j, [s.ar[j - 1] for s in specs]) for j in range(1, p + 1)]
    terms += [(shocks, q - lag, [s.ma[lag] for s in specs]) for lag in lags]
    terms = [(seq, shift, ops[0] if len(ops) == 1 else np.stack(ops))
             for seq, shift, ops in terms if np.any(ops)]
    term = np.empty_like(rows[0])  # every product lands here, so the loop allocates nothing
    for k in range(steps):
        c = rows[k + p]
        for seq, shift, op in terms:
            c += mult(op, seq[k + shift], out=term)
    return [np.ascontiguousarray(coeffs[p + burn_in :, b]) for b in range(len(specs))]


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
