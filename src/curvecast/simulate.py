"""Synthetic curve processes driven by basis-coefficient recursions.

Operators act on Fourier coefficient vectors, innovations have
independent components with chosen standard deviations, and curves are
assembled on a midpoint grid.  Includes the truncation bias bound for
known-operator autoregressions.
"""

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .curves import _BASIS_D, FunctionalDataset, Grid, _readonly, make_fourier_basis, synthesize
from .errors import NonstationaryError, _argument, _array, _at_least, _checked, _in_range, _one_of

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
_N = _at_least(1)  # the rule of a number of curves to draw
_SCHEMES = {"s1": lambda ell: 1.0 / ell, "s2": lambda ell: 1.2 ** (-ell)}  # sigma_l of l = 1..D
_SCHEME, _OPERATOR = _one_of(*_SCHEMES), _one_of(*PSI_MATRICES)  # the rules of their names


def sigma_scheme(name: str, D: int) -> np.ndarray:
    """Component standard deviations: 's1' gives 1/l, 's2' gives 1.2^-l."""
    ell = np.arange(1, _argument("sigma_scheme", "D", D, _BASIS_D) + 1, dtype=float)
    return _SCHEMES[_argument("sigma_scheme", "name", name, _SCHEME)](ell)


def fixed_psi(name: str) -> np.ndarray:
    """Reference 3 x 3 operators 'psi1' (dense) and 'psi2' (0.8 I)."""
    return PSI_MATRICES[_argument("fixed_psi", "name", name, _OPERATOR)].copy()


def _sigma(D: int) -> tuple:
    """The rule of D innovation standard deviations, each a positive number."""
    return _array(1, shape=(D,), test=lambda sigma: np.all(sigma > 0.0), takes="be positive")


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix of finite numbers."""
    return float(np.linalg.norm(_argument("spectral_norm", "a", a, _array(2)), 2))


def random_operator(D: int, sigma: np.ndarray, rng: "np.random.Generator") -> np.ndarray:
    """Random coefficient operator scaled to unit spectral norm.

    Entry (l, l') is drawn with standard deviation sigma_l * sigma_l',
    then the matrix is divided by its largest singular value.  sigma's
    largest entry lies in 1e-150..1e150: no product overflows, and the
    largest is a normal float, so that one draw gives a nonzero matrix.
    """
    D = _argument("random_operator", "D", D, _BASIS_D)
    sigma = _argument("random_operator", "sigma", sigma, _sigma(D))
    _argument("random_operator", "sigma", sigma.max(),
              (float, lambda top: 1e-150 <= top <= 1e150, "have its largest entry in 1e-150..1e150"))
    a = rng.normal(size=(D, D)) * np.outer(sigma, sigma)
    return a / spectral_norm(a)


# each kind with the operators it needs, and every field of a process spec (the keys of a spec
# JSON) with its rule (see errors._checked); sigma is parsed by _sigma(D) once D is known
_NEEDS = {"far": "ar operators and no ma operators", "fma": "ma operators and no ar operators",
          "farma": "both ar and ma operators"}
_SPEC = {"kind": _one_of(*_NEEDS),
         "D": _BASIS_D, "sigma": object,
         "ar": (object, lambda ar: isinstance(ar, (list, tuple)), "be a list"),
         "ma": dict, "burn_in": _at_least(0)}


@dataclass(frozen=True)
class ProcessSpec:
    """Coefficient-space recursion defining a curve process.

    kind is 'far', 'fma' or 'farma'.  ar lists the autoregressive
    operators Psi_1..Psi_p at consecutive lags; ma maps explicit lags to
    moving-average operators.  sigma holds the innovation standard
    deviations per component.  Construction checks each field by its rule
    in _SPEC (None counts as absent), then sigma, operators, ma lags, kind
    and stationarity against D; every error is one line naming the key.
    """

    kind: str
    D: int
    sigma: np.ndarray
    ar: tuple = ()
    ma: dict = field(default_factory=dict)
    burn_in: int = 200

    def __post_init__(self):
        args = _checked({key: getattr(self, key) for key in _SPEC}, _SPEC, "process spec",
                        ("kind", "D", "sigma"))
        kind, D = args["kind"], args["D"]
        sigma = _readonly(_argument("process spec", "sigma", args["sigma"], _sigma(D)))
        square = _array(2, shape=(D, D))
        ar = tuple(_readonly(_argument("process spec", "ar", m, square)) for m in args.get("ar", ()))
        ma = {_lag(lag): _readonly(_argument("process spec", "ma", op, square))
              for lag, op in args.get("ma", {}).items()}
        if bool(ar) != (kind != "fma") or bool(ma) != (kind != "far"):
            raise ValueError(f"process spec key 'kind' is {kind!r}, which needs {_NEEDS[kind]}")
        rho = _companion_spectral_radius(ar) if ar else 0.0
        if not rho < 1.0:
            raise NonstationaryError(f"process spec key 'ar' has companion spectral radius "
                                     f"{rho:.6f} >= 1")
        fields = dict(D=D, sigma=sigma, ar=ar, ma=ma, burn_in=args.get("burn_in", 200))
        for key, value in fields.items():
            object.__setattr__(self, key, value)

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
        """The spec a to_json object describes, checked as any spec; an unknown key is an error."""
        args = json.loads(text)
        _checked(args, dict.fromkeys(_SPEC, object), "process spec")  # a dict of spec keys only
        return cls(**{key: args.get(key) for key in _SPEC})


# each simulated kind's default scalings of its one operator psi: kappa_j per autoregressive
# lag j = 1, 2, ... and {lag: theta_l} for the moving-average lags
_SCALINGS = {"far": ((1.0,), {}), "fma": ((), {2: 0.8}), "farma": ((0.1,), {1: 0.1, 2: 0.9})}


def _scaled_spec(kind: str, psi, sigma, kappas, thetas: dict, burn_in: int) -> ProcessSpec:
    """The spec with operator kappa_j psi at autoregressive lag j and theta_l psi at ma lag l."""
    return ProcessSpec(kind=kind, D=len(psi), sigma=sigma, ar=tuple(float(k) * psi for k in kappas),
                       ma={lag: float(s) * psi for lag, s in thetas.items()}, burn_in=burn_in)


def _lag(lag) -> int:
    """An ma lag, an int >= 1 or a JSON key's digit text, parsed by the integer rule as key 'ma'."""
    lag = int(lag) if isinstance(lag, str) and lag.isdecimal() else lag
    return _argument("process spec", "ma", lag, _at_least(1))


def _companion_spectral_radius(ar) -> float:
    p = len(ar)
    D = ar[0].shape[0]
    comp = np.zeros((p * D, p * D))
    comp[:D] = np.hstack(ar)
    if p > 1:
        comp[D:, : (p - 1) * D] = np.eye((p - 1) * D)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def simulate(spec: ProcessSpec, n: int, grid: Grid, rng: "np.random.Generator") -> FunctionalDataset:
    """Draw n curves from the recursion after discarding the burn-in.

    Coefficient vectors follow
    c_k = sum_j Psi_j c_{k-j} + a_k + sum_l Theta_l a_{k-l}
    with a_k having independent components scaled by spec.sigma, started
    from zeros.
    """
    n = _argument("simulate", "n", n, _N)
    return synthesize(_coefficients([spec], n, [rng])[0], make_fourier_basis(spec.D, grid))


def _coefficients(specs, n: int, rngs) -> list:
    """The (n, D) coefficient vectors of B recursions stepped together, one generator each.

    The specs must share D, the autoregressive and moving-average lags and
    the burn-in.  Each generator draws its own innovations exactly as a
    lone :func:`simulate` would, and each step makes one stacked product
    per lag, so every recursion gets the same bits as on its own.  The B
    results are separate arrays, so a caller can release each once used.  n is an int >= 1.
    """
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
    ops = _argument("bias_bound", "ar_operators", ar_operators, _array(
        3, test=lambda ops: len(ops) and ops.shape[1] == ops.shape[2], takes="list square matrices"))
    D = ops.shape[1]
    lams = _argument("bias_bound", "eigenvalues", eigenvalues, _array(
        1, test=lambda lam: len(lam) >= D and np.all(lam >= 0.0), takes=f"list {D} or more values >= 0"))
    d = _argument("bias_bound", "d", d, _in_range(1, D, "D"))
    psi_sum = sum(float(np.sqrt(np.sum(m[:, d:] ** 2))) for m in ops)
    tail = float(np.sum(lams[d:]))
    return (1.0 + psi_sum**2) * tail
