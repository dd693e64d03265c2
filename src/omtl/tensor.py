"""Dense 2-D float64 tensors with tape-based reverse-mode differentiation.

Everything is a (rows, cols) matrix; scalars are (1, 1). Primitives record
a backward closure on the active Tape, and Tape.backward replays them in
strict reverse order, accumulating gradients in per-tape buffers. The op
set is the minimum needed for one-layer feed-forward blocks, softmax
gates, and the losses: matmul, elementwise add/sub/mul, constant
scaling, LeakyReLU, ReLU, Softplus, sigmoid, log, softmax over the last
axis, inverted dropout, concat, row selection, full reductions (sum,
mean), and fused affine forms of the activations and gates.

Tensors flagged const (record features, labels, masks) never receive
gradients, which keeps the backward pass off paths nothing can learn from.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeMismatch

_ACTIVE_TAPE: list["Tape"] = []


class Tensor:
    """A (rows, cols) matrix of float64 values, optionally named."""

    __slots__ = ("values", "name", "const")

    def __init__(self, values, name: str | None = None, const: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatch("tensor", arr.shape)
        self.values = arr
        self.name = name
        self.const = const

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeMismatch("item", self.shape)
        return float(self.values[0, 0])

    def copy(self) -> "Tensor":
        return Tensor(self.values.copy(), name=self.name, const=self.const)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"


def _fresh(arr: np.ndarray) -> Tensor:
    """Internal constructor for op outputs: arr is already 2-D float64."""
    t = Tensor.__new__(Tensor)
    t.values = arr
    t.name = None
    t.const = False
    return t


class Tape:
    """Records primitive ops in execution order for one backward replay."""

    def __init__(self):
        self._ops: list[tuple[Tensor, object]] = []
        self._grads: dict[int, np.ndarray] = {}
        self._consumed = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.pop()

    def _record(self, out: Tensor, backward) -> None:
        self._ops.append((out, backward))

    def _accum(self, t: Tensor, g: np.ndarray, own: bool = False) -> None:
        """Add g to t's gradient buffer. own=True promises g is a fresh
        array the tape may keep and mutate."""
        key = id(t)
        buf = self._grads.get(key)
        if buf is None:
            self._grads[key] = g if own else g.copy()
        else:
            buf += g

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and replay the tape in reverse."""
        if self._consumed:
            raise NumericalError("tape already consumed by a previous backward pass")
        if loss.shape != (1, 1):
            raise ShapeMismatch("backward: loss must be scalar", loss.shape)
        self._consumed = True
        self._accum(loss, np.ones((1, 1)), own=True)
        grads = self._grads
        for out, backward in reversed(self._ops):
            g = grads.get(id(out))
            if g is None:
                continue
            backward(g)

    def gradient(self, t: Tensor) -> np.ndarray:
        """Gradient of the loss w.r.t. t; exact zeros if t never reached it."""
        g = self._grads.get(id(t))
        if g is None:
            return np.zeros_like(t.values)
        return g

    def gradients(self, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
        return {name: self.gradient(p) for name, p in params.items()}


def _tape() -> Tape | None:
    return _ACTIVE_TAPE[-1] if _ACTIVE_TAPE else None


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape)
    out = _fresh(a.values @ b.values)
    t = _tape()
    if t is not None:
        def backward(g, t=t, a=a, b=b):
            if not a.const:
                t._accum(a, g @ b.values.T, own=True)
            if not b.const:
                t._accum(b, a.values.T @ g, own=True)
        t._record(out, backward)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with a (1, m) bias row, recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("affine", x.shape, w.shape, b.shape)
    out = _fresh(x.values @ w.values + b.values)
    t = _tape()
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b):
            if not x.const:
                t._accum(x, g @ w.values.T, own=True)
            t._accum(w, x.values.T @ g, own=True)
            t._accum(b, g.sum(axis=0, keepdims=True), own=True)
        t._record(out, backward)
    return out


def weighted_sum(weights: Tensor, parts: list[Tensor]) -> Tensor:
    """Row-wise mixture: out[i] = sum_k weights[i, k] * parts[k][i].

    weights is (g, K) and every part is (g, m); this is the gate-mixing
    step shared by expert gates and parent gates.
    """
    g_rows, k = weights.shape
    if k != len(parts):
        raise ShapeMismatch("weighted_sum", weights.shape, len(parts))
    for p in parts:
        if p.shape[0] != g_rows:
            raise ShapeMismatch("weighted_sum", weights.shape, p.shape)
    acc = weights.values[:, 0:1] * parts[0].values
    for j in range(1, k):
        acc += weights.values[:, j:j + 1] * parts[j].values
    out = _fresh(acc)
    t = _tape()
    if t is not None:
        def backward(g, t=t, weights=weights, parts=parts):
            wg = np.empty_like(weights.values)
            for j, p in enumerate(parts):
                if not p.const:
                    t._accum(p, g * weights.values[:, j:j + 1], own=True)
                wg[:, j] = (g * p.values).sum(axis=1)
            t._accum(weights, wg, own=True)
        t._record(out, backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatch("add", a.shape, b.shape)
    out = _fresh(a.values + b.values)
    t = _tape()
    if t is not None:
        def backward(g, t=t, a=a, b=b):
            if not a.const:
                t._accum(a, g)
            if not b.const:
                t._accum(b, g)
        t._record(out, backward)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch("sub", a.shape, b.shape)
    out = _fresh(a.values - b.values)
    t = _tape()
    if t is not None:
        def backward(g, t=t, a=a, b=b):
            if not a.const:
                t._accum(a, g)
            if not b.const:
                t._accum(b, -g, own=True)
        t._record(out, backward)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product."""
    if a.shape != b.shape:
        raise ShapeMismatch("mul", a.shape, b.shape)
    out = _fresh(a.values * b.values)
    t = _tape()
    if t is not None:
        def backward(g, t=t, a=a, b=b):
            if not a.const:
                t._accum(a, g * b.values, own=True)
            if not b.const:
                t._accum(b, g * a.values, own=True)
        t._record(out, backward)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python-float constant (not differentiated through)."""
    c = float(c)
    out = _fresh(x.values * c)
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, c=c):
            t._accum(x, g * c, own=True)
        t._record(out, backward)
    return out


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    pos = x.values > 0
    out = _fresh(np.where(pos, x.values, slope * x.values))
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, pos=pos, slope=slope):
            t._accum(x, g * np.where(pos, 1.0, slope), own=True)
        t._record(out, backward)
    return out


def relu(x: Tensor) -> Tensor:
    pos = x.values > 0
    out = _fresh(np.where(pos, x.values, 0.0))
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, pos=pos):
            t._accum(x, g * pos, own=True)
        t._record(out, backward)
    return out


def softplus(x: Tensor) -> Tensor:
    # logaddexp(0, x) = log(1 + e^x) without overflow for large |x|
    out = _fresh(np.logaddexp(0.0, x.values))
    t = _tape()
    if t is not None and not x.const:
        sig = _sigmoid_values(x.values)
        def backward(g, t=t, x=x, sig=sig):
            t._accum(x, g * sig, own=True)
        t._record(out, backward)
    return out


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_values(x.values)
    out = _fresh(s)
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, s=s):
            t._accum(x, g * s * (1.0 - s), own=True)
        t._record(out, backward)
    return out


def log(x: Tensor) -> Tensor:
    out = _fresh(np.log(x.values))
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x):
            t._accum(x, g / x.values, own=True)
        t._record(out, backward)
    return out


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis; each output row sums to 1."""
    shifted = x.values - x.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = _fresh(s)
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, s=s):
            dot = (g * s).sum(axis=1, keepdims=True)
            t._accum(x, s * (g - dot), own=True)
        t._record(out, backward)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: scales kept entries by 1/(1-rate) at train time.

    Eval mode (train=False) is the identity and draws nothing from rng.
    """
    if not 0.0 <= rate < 1.0:
        raise NumericalError(f"dropout rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) >= rate) / keep
    out = _fresh(x.values * mask)
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, mask=mask):
            t._accum(x, g * mask, own=True)
        t._record(out, backward)
    return out


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    if axis not in (0, 1):
        raise ShapeMismatch("concat axis", axis)
    other = 1 - axis
    sizes = [p.shape[axis] for p in parts]
    if len({p.shape[other] for p in parts}) != 1:
        raise ShapeMismatch("concat", *[p.shape for p in parts])
    out = _fresh(np.concatenate([p.values for p in parts], axis=axis))
    t = _tape()
    if t is not None:
        offsets = np.cumsum([0] + sizes)
        def backward(g, t=t, parts=parts, offsets=offsets, axis=axis):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if not p.const:
                    t._accum(p, g[lo:hi, :] if axis == 0 else g[:, lo:hi])
        t._record(out, backward)
    return out


def softmax_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """softmax(x @ w + b) over the last axis, recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("softmax_affine", x.shape, w.shape, b.shape)
    z = x.values @ w.values + b.values
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    out = _fresh(z)
    t = _tape()
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b, s=z):
            gz = s * (g - (g * s).sum(axis=1, keepdims=True))
            if not x.const:
                t._accum(x, gz @ w.values.T, own=True)
            t._accum(w, x.values.T @ gz, own=True)
            t._accum(b, gz.sum(axis=0, keepdims=True), own=True)
        t._record(out, backward)
    return out


def softplus_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """softplus(x @ w + b), recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("softplus_affine", x.shape, w.shape, b.shape)
    z = x.values @ w.values + b.values
    sp = np.logaddexp(0.0, z)
    out = _fresh(sp)
    t = _tape()
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b, z=z, sp=sp):
            gz = g * np.exp(z - sp)  # sigmoid(z), stable since z - sp <= 0
            if not x.const:
                t._accum(x, gz @ w.values.T, own=True)
            t._accum(w, x.values.T @ gz, own=True)
            t._accum(b, gz.sum(axis=0, keepdims=True), own=True)
        t._record(out, backward)
    return out


def relu_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b), recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("relu_affine", x.shape, w.shape, b.shape)
    z = x.values @ w.values + b.values
    pos = z > 0
    out = _fresh(np.where(pos, z, 0.0))
    t = _tape()
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b, pos=pos):
            gz = g * pos
            if not x.const:
                t._accum(x, gz @ w.values.T, own=True)
            t._accum(w, x.values.T @ gz, own=True)
            t._accum(b, gz.sum(axis=0, keepdims=True), own=True)
        t._record(out, backward)
    return out


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of x by a unique index vector (gradient scatters back)."""
    out = _fresh(x.values[idx])
    out.const = x.const
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, idx=idx):
            buf = np.zeros_like(x.values)
            buf[idx] = g
            t._accum(x, buf, own=True)
        t._record(out, backward)
    return out


def sum_tensors(parts: list[Tensor]) -> Tensor:
    """Elementwise sum of any number of same-shape tensors."""
    shape = parts[0].shape
    for p in parts[1:]:
        if p.shape != shape:
            raise ShapeMismatch("sum_tensors", *[p.shape for p in parts])
    acc = parts[0].values.copy()
    for p in parts[1:]:
        acc += p.values
    out = _fresh(acc)
    t = _tape()
    if t is not None:
        def backward(g, t=t, parts=parts):
            for p in parts:
                if not p.const:
                    t._accum(p, g)
        t._record(out, backward)
    return out


def bce_with_logits_sum(logits: Tensor, y: np.ndarray,
                        mask: np.ndarray | None = None) -> Tensor:
    """Sum of binary cross-entropy terms evaluated from logits.

    Each entry contributes softplus(z) - y*z, which equals
    -[y log p + (1-y) log(1-p)] for p = sigmoid(z) and stays finite for
    any logit. mask entries of 0 silence a term (and its gradient) exactly.
    """
    if y.shape != logits.shape or (mask is not None and mask.shape != y.shape):
        raise ShapeMismatch("bce_with_logits_sum", logits.shape, y.shape)
    z = logits.values
    sp = np.logaddexp(0.0, z)
    terms = sp - y * z
    if mask is not None:
        terms = terms * mask
    out = _fresh(np.array([[terms.sum()]]))
    t = _tape()
    if t is not None and not logits.const:
        def backward(g, t=t, logits=logits, y=y, mask=mask, z=z, sp=sp):
            dz = np.exp(z - sp) - y
            if mask is not None:
                dz *= mask
            t._accum(logits, dz * g[0, 0], own=True)
        t._record(out, backward)
    return out


def squared_error_sum(a: Tensor, target: np.ndarray) -> Tensor:
    """sum((a - target)^2) against a constant target."""
    if target.shape != a.shape:
        raise ShapeMismatch("squared_error_sum", a.shape, target.shape)
    resid = a.values - target
    out = _fresh(np.array([[(resid * resid).sum()]]))
    t = _tape()
    if t is not None and not a.const:
        def backward(g, t=t, a=a, resid=resid):
            t._accum(a, (2.0 * g[0, 0]) * resid, own=True)
        t._record(out, backward)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = _fresh(np.array([[x.values.sum()]]))
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x):
            t._accum(x, np.full(x.shape, g[0, 0]), own=True)
        t._record(out, backward)
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.values.size
    out = _fresh(np.array([[x.values.sum() / n]]))
    t = _tape()
    if t is not None and not x.const:
        def backward(g, t=t, x=x, n=n):
            t._accum(x, np.full(x.shape, g[0, 0] / n), own=True)
        t._record(out, backward)
    return out


# ---------------------------------------------------------------------------
# parameter initialization


def fan_in_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init; fan_in = rows."""
    bound = 1.0 / np.sqrt(max(rows, 1))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))
