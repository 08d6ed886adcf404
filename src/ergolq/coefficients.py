"""Coefficient processes with a built-in period.

Every model coefficient is a function of two things only: the phase
``t mod tau`` inside the current period, and the within-period partial
sum, the Brownian increments summed since the last period boundary.
Restricting coefficients to this form makes the shift identity
``f(t + tau, W) = f(t, shifted W)`` hold by construction instead of by
assumption, so downstream solvers can treat one period as the whole
problem.

Three concrete families are provided and are exactly the families the
scenario file grammar can express:

* ``constant``: a fixed matrix.
* ``harmonic``: deterministic trigonometric polynomial of the phase.
* ``tanh_sum``: a bounded link function (tanh, sin or cos) of the
  within-period increment partial sum, scaled and offset entrywise.

In-memory compositions (sums, scalings, transposes, products and
R^{-1} products) serve the solver internals and are not serializable.  Each
records its operands and the numpy call that combines their values, so a
grid binding can walk the recorded tree instead of re-evaluating it whole.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

SYMMETRY_TOL = 1e-12

_KIND_ORDER = {"constant": 0, "deterministic-periodic": 1, "path-functional": 2}
_LINKS = {"tanh": np.tanh, "sin": np.sin, "cos": np.cos}


class CoefficientError(ValueError):
    """Raised for invalid coefficient evaluations or malformed sets."""


class ScenarioFormatError(ValueError):
    """Raised when a scenario definition file cannot be parsed or written."""


@dataclass(eq=False)
class CoefficientFn:
    """A single model coefficient.

    kind is one of ``constant``, ``deterministic-periodic`` or
    ``path-functional``; ``shape`` is the matrix shape (vectors use a
    length-1 tuple).  ``evaluator(phase, s)`` takes the ``(n_paths,)``
    within-period partial sums ``s`` and returns either ``shape`` (path
    independent) or ``(n_paths,) + shape``.

    ``family``/``params`` are set for the serializable families and None for
    in-memory compositions.  A composition records ``parts = (combine,
    operands)``: its value is ``combine`` applied to the operands' values,
    which is what its evaluator computes and what ``PathBundle.bind`` walks.
    """

    kind: str
    shape: tuple
    evaluator: Callable
    tau: float
    family: Optional[str] = None
    params: Optional[dict] = None
    symmetrize: bool = False
    diagnostics: dict = field(default_factory=dict)
    parts: Optional[tuple] = None

    def eval_batch(self, phase: float, partial_sum: np.ndarray) -> np.ndarray:
        """Evaluate on a path batch; result broadcasts against per-path arrays."""
        if not 0.0 <= phase < self.tau:
            raise CoefficientError(
                f"phase {phase!r} outside [0, {self.tau!r})"
            )
        return self.finish(self.evaluator(phase, partial_sum))

    def finish(self, out) -> np.ndarray:
        """Check an evaluated value's shape and symmetrize it if flagged."""
        out = np.asarray(out, dtype=float)
        if out.shape[-len(self.shape):] != self.shape:
            raise CoefficientError(
                f"evaluator returned shape {out.shape}, declared {self.shape}"
            )
        if self.symmetrize and len(self.shape) == 2 and self.shape[0] == self.shape[1]:
            sym = 0.5 * (out + np.swapaxes(out, -1, -2))
            asym = float(np.max(np.abs(out - np.swapaxes(out, -1, -2)))) if out.size else 0.0
            if asym > SYMMETRY_TOL:
                prev = self.diagnostics.get("max_asymmetry", 0.0)
                self.diagnostics["max_asymmetry"] = max(prev, asym)
            out = sym
        return out

    @property
    def is_zero(self) -> bool:
        return (
            self.family == "constant"
            and self.params is not None
            and not np.any(self.params["value"])
        )


# ---------------------------------------------------------------------------
# concrete families


def _as_matrix(value, shape) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != tuple(shape):
        raise CoefficientError(f"value shape {arr.shape} != declared {tuple(shape)}")
    arr.setflags(write=False)
    return arr


def constant_coeff(value, tau: float, *, symmetrize: bool = False) -> CoefficientFn:
    arr = np.array(value, dtype=float)
    arr.setflags(write=False)
    shape = arr.shape

    def evaluator(phase, s):
        return arr

    return CoefficientFn(
        kind="constant",
        shape=shape,
        evaluator=evaluator,
        tau=tau,
        family="constant",
        params={"value": arr},
        symmetrize=symmetrize,
    )


def harmonic_coeff(
    tau: float,
    base,
    sin_terms: Optional[dict] = None,
    cos_terms: Optional[dict] = None,
    *,
    symmetrize: bool = False,
) -> CoefficientFn:
    """Deterministic periodic coefficient: trigonometric polynomial of the phase.

    ``sin_terms``/``cos_terms`` map harmonic order (a positive int) to a
    matrix of the same shape as ``base``.
    """
    base = np.array(base, dtype=float)
    shape = base.shape
    sin_terms = {int(k): _as_matrix(v, shape) for k, v in (sin_terms or {}).items()}
    cos_terms = {int(k): _as_matrix(v, shape) for k, v in (cos_terms or {}).items()}
    for order in list(sin_terms) + list(cos_terms):
        if order < 1:
            raise CoefficientError("harmonic orders must be >= 1")
    omega = 2.0 * math.pi / tau

    def evaluator(phase, s):
        out = base.copy()
        for order, mat in sin_terms.items():
            out += mat * math.sin(omega * order * phase)
        for order, mat in cos_terms.items():
            out += mat * math.cos(omega * order * phase)
        return out

    base.setflags(write=False)
    return CoefficientFn(
        kind="deterministic-periodic",
        shape=shape,
        evaluator=evaluator,
        tau=tau,
        family="harmonic",
        params={"base": base, "sin": sin_terms, "cos": cos_terms},
        symmetrize=symmetrize,
    )


def tanh_sum_coeff(
    tau: float,
    base,
    amplitude,
    scale: float = 1.0,
    offset: float = 0.0,
    link: str = "tanh",
    *,
    symmetrize: bool = False,
) -> CoefficientFn:
    """Path-functional coefficient driven by the within-period increment sum.

    value = base + amplitude * link(scale * S + offset) with S the partial
    sum of the current period's increments.
    """
    base = np.array(base, dtype=float)
    shape = base.shape
    amp = _as_matrix(amplitude, shape)
    if link not in _LINKS:
        raise CoefficientError(f"unknown link {link!r}; choose from {sorted(_LINKS)}")
    link_fn = _LINKS[link]

    def evaluator(phase, s):
        return base + amp * link_fn(scale * s + offset).reshape((-1,) + (1,) * len(shape))

    base.setflags(write=False)
    return CoefficientFn(
        kind="path-functional",
        shape=shape,
        evaluator=evaluator,
        tau=tau,
        family="tanh_sum",
        params={
            "base": base,
            "amp": amp,
            "scale": float(scale),
            "offset": float(offset),
            "link": link,
        },
        symmetrize=symmetrize,
    )


# ---------------------------------------------------------------------------
# composition algebra (solver internals)


def _compose(shape, combine: Callable, *operands: CoefficientFn) -> CoefficientFn:
    """The one composition rule: ``combine`` of the operands' values.

    The kind is the most path-dependent operand's and the period the first
    operand's; the operands are recorded for ``PathBundle.bind`` to walk.
    """
    kind = max((f.kind for f in operands), key=_KIND_ORDER.__getitem__)

    def evaluator(phase, s):
        return combine(*(f.eval_batch(phase, s) for f in operands))

    return CoefficientFn(
        kind=kind,
        shape=tuple(shape),
        evaluator=evaluator,
        tau=operands[0].tau,
        parts=(combine, operands),
    )


def cf_add(f: CoefficientFn, g: CoefficientFn) -> CoefficientFn:
    if f.shape != g.shape:
        raise CoefficientError(f"shape mismatch in sum: {f.shape} vs {g.shape}")
    return _compose(f.shape, np.add, f, g)


def cf_scale(f: CoefficientFn, alpha: float) -> CoefficientFn:
    return _compose(f.shape, lambda a: alpha * a, f)


def cf_transpose(f: CoefficientFn) -> CoefficientFn:
    if len(f.shape) != 2:
        raise CoefficientError("transpose needs a matrix coefficient")
    return _compose((f.shape[1], f.shape[0]), lambda a: np.swapaxes(a, -1, -2), f)


def _matmul_shapes(fs, gs):
    # vectors on the right are treated as columns
    left = fs if len(fs) == 2 else (1, fs[0])
    right = gs if len(gs) == 2 else (gs[0], 1)
    if left[1] != right[0]:
        raise CoefficientError(f"inner dimensions differ: {fs} @ {gs}")
    if len(gs) == 1:
        return (left[0],) if len(fs) == 2 else (1,)
    return (left[0], right[1])


def _product(f: CoefficientFn, g: CoefficientFn, apply: Callable) -> CoefficientFn:
    """apply(f, g) for a matrix product form; a 1-d g is applied as a column."""
    shape = _matmul_shapes(f.shape, g.shape)
    if len(g.shape) == 1:
        return _compose(shape, lambda a, b: apply(a, b[..., None])[..., 0], f, g)
    return _compose(shape, apply, f, g)


def cf_matmul(f: CoefficientFn, g: CoefficientFn) -> CoefficientFn:
    """Matrix product; a 1-d right factor is treated as a column vector."""
    return _product(f, g, np.matmul)


def _inv_mul(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.matmul(np.linalg.inv(r), rhs)


def rinv_apply(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """R^{-1} @ rhs by R's kind: a path-free R is inverted and multiplied, and
    only a path-functional R costs a linear solve per path.  A node value shows
    that kind as a leading path axis; ``cf_rinv_mul`` reads the kind itself, as
    a path-free R's phase table has a leading axis too."""
    return _inv_mul(r, rhs) if r.ndim == 2 else np.linalg.solve(r, rhs)


def cf_stack(fns) -> CoefficientFn:
    """L coefficients of one shape as one (L, *shape), stacked after any phase or path axis."""
    axis, shape = -len(fns[0].shape) - 1, (len(fns),) + fns[0].shape
    return _compose(shape, lambda *v: np.stack(np.broadcast_arrays(*v), axis), *fns)


def cf_rinv_mul(r_fn: CoefficientFn, g: CoefficientFn) -> CoefficientFn:
    """R^{-1} @ g (R must stay invertible), by ``rinv_apply``'s rule."""
    return _product(r_fn, g, np.linalg.solve if r_fn.kind == "path-functional" else _inv_mul)


# ---------------------------------------------------------------------------
# coefficient sets and feedback laws

_COEFF_FIELDS = ("A", "B", "C", "b", "sigma", "Q", "S", "R", "q", "rho")


def _coeff_shapes(n: int, m: int) -> dict:
    return {
        "A": (n, n), "B": (n, m), "C": (n, n), "b": (n,), "sigma": (n,),
        "Q": (n, n), "S": (m, n), "R": (m, m), "q": (n,), "rho": (m,),
    }


@dataclass(eq=False)
class PeriodicCoefficientSet:
    """All model data of one control problem over one period.

    Shapes: A, C, Q are (n, n); B is (n, m); S is (m, n); R is (m, m);
    b, sigma, q are (n,); rho is (m,).  Q and R are symmetrized at every
    evaluation (asymmetry beyond 1e-12 is recorded in their diagnostics).
    """

    tau: float
    n: int
    m: int
    A: CoefficientFn
    B: CoefficientFn
    C: CoefficientFn
    b: CoefficientFn
    sigma: CoefficientFn
    Q: CoefficientFn
    S: CoefficientFn
    R: CoefficientFn
    q: CoefficientFn
    rho: CoefficientFn
    name: str = ""

    def __post_init__(self):
        if self.tau <= 0:
            raise CoefficientError("tau must be positive")
        for key, shape in _coeff_shapes(self.n, self.m).items():
            fn = getattr(self, key)
            if fn.shape != shape:
                raise CoefficientError(f"{key} has shape {fn.shape}, expected {shape}")
            if abs(fn.tau - self.tau) > 0.0:
                raise CoefficientError(f"{key} declares period {fn.tau}, set has {self.tau}")
        self.Q.symmetrize = True
        self.R.symmetrize = True

    def coefficient(self, name: str) -> CoefficientFn:
        if name not in _COEFF_FIELDS:
            raise CoefficientError(f"unknown coefficient {name!r}")
        return getattr(self, name)


@dataclass(eq=False)
class FeedbackLaw:
    """Closed-loop control u = Theta(t, path) x + v(t, path).

    Theta has shape (m, n) and v shape (m,).  A burned-in state holds the
    law it ran under, so no identity is needed to pair the two.
    """

    Theta: CoefficientFn
    v: CoefficientFn
    label: str = ""


def constant_feedback(coeffs: PeriodicCoefficientSet, theta, v=None, label: str = "") -> FeedbackLaw:
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    vval = np.zeros(coeffs.m) if v is None else np.atleast_1d(np.asarray(v, dtype=float))
    return FeedbackLaw(
        Theta=constant_coeff(theta, coeffs.tau),
        v=constant_coeff(vval, coeffs.tau),
        label=label,
    )


def perturbed_feedback(
    base: FeedbackLaw, d_theta=None, d_v=None, eps: float = 1.0
) -> FeedbackLaw:
    """base + eps * (d_theta, d_v) with constant-matrix perturbation directions."""
    theta = base.Theta
    v = base.v
    if d_theta is not None:
        step = constant_coeff(eps * np.atleast_2d(np.asarray(d_theta, float)), theta.tau)
        theta = cf_add(theta, step)
    if d_v is not None:
        step_v = constant_coeff(eps * np.atleast_1d(np.asarray(d_v, float)), v.tau)
        v = cf_add(v, step_v)
    return FeedbackLaw(Theta=theta, v=v, label=f"{base.label}+eps={eps}")


# ---------------------------------------------------------------------------
# positivity audit


@dataclass
class PositivityReport:
    min_eig_R: float
    min_eig_cost: float

    @property
    def margin(self) -> float:
        return min(self.min_eig_R, self.min_eig_cost)

    @property
    def passed(self) -> bool:
        return self.margin > 0.0


def check_positivity(coeffs: PeriodicCoefficientSet) -> PositivityReport:
    """Sample R and Q - S^T R^{-1} S over 64 random (phase, partial sum)
    draws (seed 0, so every caller audits the same samples).

    Raises CoefficientError on an asymmetric Q/R sample (beyond 1e-12) or a
    numerically singular R sample; otherwise reports the worst eigenvalues.
    """
    rng = np.random.default_rng(0)
    dt = coeffs.tau / 64.0
    min_r = math.inf
    min_cost = math.inf
    for _ in range(64):
        steps = int(rng.integers(0, 64))
        phase = steps * dt
        partial_sum = rng.normal(0.0, math.sqrt(dt), size=(1, steps)).sum(axis=1)
        r = coeffs.R.eval_batch(phase, partial_sum)
        qm = coeffs.Q.eval_batch(phase, partial_sum)
        s = coeffs.S.eval_batch(phase, partial_sum)
        r2 = r if r.ndim == 2 else r[0]
        q2 = qm if qm.ndim == 2 else qm[0]
        s2 = s if s.ndim == 2 else s[0]
        eig_r = np.linalg.eigvalsh(r2)
        if np.min(np.abs(eig_r)) < 1e-12:
            raise CoefficientError("singular R sample in positivity check")
        cost = q2 - s2.T @ np.linalg.solve(r2, s2)
        min_r = min(min_r, float(eig_r.min()))
        min_cost = min(min_cost, float(np.linalg.eigvalsh(cost).min()))
    for fn in (coeffs.Q, coeffs.R):
        if fn.diagnostics.get("max_asymmetry", 0.0) > SYMMETRY_TOL:
            raise CoefficientError(
                f"asymmetric sample: max asymmetry {fn.diagnostics['max_asymmetry']:.3e}"
            )
    return PositivityReport(min_eig_R=min_r, min_eig_cost=min_cost)


# ---------------------------------------------------------------------------
# scenario catalog


def builtin_scenarios() -> dict:
    """Catalog of named, fully validated scenario definitions."""
    out = {}

    def scalar(name, a, bc, c, bd, sd, qc, sc, rc, ql, rl, **kw):
        tau = 1.0
        return PeriodicCoefficientSet(
            tau=tau, n=1, m=1,
            A=a, B=bc, C=c, b=bd, sigma=sd, Q=qc, S=sc, R=rc, q=ql, rho=rl,
            name=name, **kw,
        )

    tau = 1.0
    const = lambda v, shape=None: constant_coeff(
        np.full(shape, float(v)) if shape else np.array([[float(v)]]), tau
    )
    vconst = lambda v: constant_coeff(np.array([float(v)]), tau)

    out["scalar-constant"] = scalar(
        "scalar-constant",
        const(-1.0), const(1.0), const(0.0), vconst(1.0), vconst(1.0),
        const(1.0), const(0.0), const(1.0), vconst(0.0), vconst(0.0),
    )
    out["scalar-noisy"] = scalar(
        "scalar-noisy",
        const(-1.0), const(1.0), const(1.0), vconst(1.0), vconst(1.0),
        const(1.0), const(0.0), const(1.0), vconst(0.0), vconst(0.0),
    )
    # no control authority; A stable on its own, used for raw decay studies
    out["scalar-moment-decay"] = scalar(
        "scalar-moment-decay",
        const(-1.0), const(0.0), const(0.5), vconst(0.0), vconst(0.0),
        const(1.0), const(0.0), const(1.0), vconst(0.0), vconst(0.0),
    )
    out["scalar-random-periodic"] = scalar(
        "scalar-random-periodic",
        tanh_sum_coeff(tau, [[-1.0]], [[0.25]], scale=1.0),
        const(1.0),
        tanh_sum_coeff(tau, [[0.3]], [[0.1]], scale=1.0),
        tanh_sum_coeff(tau, [0.3], [0.2], scale=0.7),
        tanh_sum_coeff(tau, [0.5], [0.2], scale=0.5),
        tanh_sum_coeff(tau, [[1.0]], [[0.2]], scale=0.8),
        const(0.1),
        const(1.0),
        vconst(0.1),
        vconst(0.05),
    )
    out["planar-deterministic-periodic"] = PeriodicCoefficientSet(
        tau=tau, n=2, m=1,
        A=harmonic_coeff(
            tau,
            [[-1.0, 0.2], [0.0, -1.2]],
            sin_terms={1: [[0.3, 0.0], [0.0, 0.0]]},
            cos_terms={1: [[0.0, 0.0], [0.0, 0.3]]},
        ),
        B=constant_coeff([[0.0], [1.0]], tau),
        C=harmonic_coeff(
            tau,
            [[0.15, 0.0], [0.0, 0.1]],
            sin_terms={1: [[0.05, 0.0], [0.0, 0.0]]},
        ),
        b=harmonic_coeff(tau, [0.2, 0.0], cos_terms={1: [0.1, 0.0]}),
        sigma=constant_coeff([0.1, 0.2], tau),
        Q=harmonic_coeff(
            tau, [[1.0, 0.0], [0.0, 1.0]], sin_terms={1: [[0.2, 0.0], [0.0, 0.0]]}
        ),
        S=constant_coeff([[0.0, 0.0]], tau),
        R=constant_coeff([[1.0]], tau),
        q=constant_coeff([0.0, 0.0], tau),
        rho=constant_coeff([0.0], tau),
        name="planar-deterministic-periodic",
    )
    return out


# ---------------------------------------------------------------------------
# scenario definition files
#
# INI-style grammar (sections are case sensitive):
#
#   [model]
#   tau = <float>      n = <int>      m = <int>      name = <string, optional>
#
#   one section per coefficient: [A] [B] [C] [b] [sigma] [Q] [S] [R] [q] [rho]
#     family = constant | harmonic | tanh_sum
#     constant:  value = <matrix>
#     harmonic:  base = <matrix>, then any of sin1.. sinN / cos1.. cosN
#     tanh_sum:  base, amp = <matrix>; scale, offset = <float>; link = tanh|sin|cos
#
#   matrix literal: rows separated by ';', entries by whitespace.
#   Vectors are written as a single row.

_HARM_KEY = re.compile(r"^(sin|cos)([1-9][0-9]*)$")


def _format_matrix(arr) -> str:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    return " ; ".join(" ".join(repr(float(x)) for x in row) for row in arr)


def _parse_matrix(text: str, shape) -> np.ndarray:
    rows = [r.split() for r in text.split(";")]
    try:
        arr = np.array([[float(x) for x in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise ScenarioFormatError(f"bad matrix literal {text!r}") from exc
    if len(shape) == 1:
        if arr.shape != (1, shape[0]):
            raise ScenarioFormatError(
                f"expected a {shape[0]}-entry row vector, got shape {arr.shape}"
            )
        return arr[0]
    if arr.shape != tuple(shape):
        raise ScenarioFormatError(f"expected shape {tuple(shape)}, got {arr.shape}")
    return arr


def serialize_scenario(coeffs: PeriodicCoefficientSet) -> str:
    """Render a coefficient set in the scenario file grammar.

    Only the serializable families round-trip; composed coefficients raise.
    """
    lines = ["[model]"]
    lines.append(f"tau = {repr(float(coeffs.tau))}")
    lines.append(f"n = {coeffs.n}")
    lines.append(f"m = {coeffs.m}")
    if coeffs.name:
        lines.append(f"name = {coeffs.name}")
    for key in _COEFF_FIELDS:
        fn = getattr(coeffs, key)
        if fn.family is None or fn.params is None:
            raise ScenarioFormatError(
                f"coefficient {key} is a composition and has no file form"
            )
        lines.append("")
        lines.append(f"[{key}]")
        lines.append(f"family = {fn.family}")
        p = fn.params
        if fn.family == "constant":
            lines.append(f"value = {_format_matrix(p['value'])}")
        elif fn.family == "harmonic":
            lines.append(f"base = {_format_matrix(p['base'])}")
            for order in sorted(p["sin"]):
                lines.append(f"sin{order} = {_format_matrix(p['sin'][order])}")
            for order in sorted(p["cos"]):
                lines.append(f"cos{order} = {_format_matrix(p['cos'][order])}")
        elif fn.family == "tanh_sum":
            lines.append(f"base = {_format_matrix(p['base'])}")
            lines.append(f"amp = {_format_matrix(p['amp'])}")
            lines.append(f"scale = {repr(p['scale'])}")
            lines.append(f"offset = {repr(p['offset'])}")
            lines.append(f"link = {p['link']}")
        else:
            raise ScenarioFormatError(f"unknown family {fn.family!r}")
    return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> PeriodicCoefficientSet:
    """Parse a scenario definition; inverse of serialize_scenario."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioFormatError(f"unparseable scenario file: {exc}") from exc
    if "model" not in cp:
        raise ScenarioFormatError("missing [model] section")
    model = cp["model"]
    try:
        tau = float(model["tau"])
        n = int(model["n"])
        m = int(model["m"])
    except (KeyError, ValueError) as exc:
        raise ScenarioFormatError(f"bad [model] section: {exc}") from exc
    name = model.get("name", "")
    shapes = _coeff_shapes(n, m)
    fns = {}
    for key, shape in shapes.items():
        if key not in cp:
            raise ScenarioFormatError(f"missing [{key}] section")
        sec = cp[key]
        family = sec.get("family")
        if family not in ("constant", "harmonic", "tanh_sum"):
            raise ScenarioFormatError(f"[{key}] has unknown family {family!r}")
        try:
            if family == "constant":
                fns[key] = constant_coeff(_parse_matrix(sec["value"], shape), tau)
            elif family == "harmonic":
                sin_terms, cos_terms = {}, {}
                for opt in sec:
                    match = _HARM_KEY.match(opt)
                    if match:
                        target = sin_terms if match.group(1) == "sin" else cos_terms
                        target[int(match.group(2))] = _parse_matrix(sec[opt], shape)
                fns[key] = harmonic_coeff(
                    tau, _parse_matrix(sec["base"], shape), sin_terms, cos_terms
                )
            else:
                fns[key] = tanh_sum_coeff(
                    tau,
                    _parse_matrix(sec["base"], shape),
                    _parse_matrix(sec["amp"], shape),
                    scale=float(sec.get("scale", "1.0")),
                    offset=float(sec.get("offset", "0.0")),
                    link=sec.get("link", "tanh"),
                )
        except KeyError as exc:
            raise ScenarioFormatError(f"[{key}] lacks {exc}") from exc
        except ValueError as exc:
            raise ScenarioFormatError(f"bad [{key}] section: {exc}") from exc
    return PeriodicCoefficientSet(tau=tau, n=n, m=m, name=name, **fns)


def load_scenario(path) -> PeriodicCoefficientSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def save_scenario(coeffs: PeriodicCoefficientSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scenario(coeffs))
