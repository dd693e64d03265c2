"""Dense 2-D float64 tensors with tape-based reverse-mode differentiation.

Everything is a (rows, cols) matrix; scalars are (1, 1). Primitives record
a backward closure on the active Tape, and Tape.backward replays them in
strict reverse order, accumulating gradients in per-tape buffers. The op
set is exactly what the model and its losses run: the fused affine forms
(affine, softmax_affine for the gates, softplus_affine for representation
layers, relu_affine for reconstructions), LeakyReLU, inverted dropout,
row selection (take_rows), gate mixing (weighted_sum), elementwise sums
(add, sum_tensors), constant scaling, and the two summed losses
(bce_with_logits_sum, squared_error_sum).

Constness decides gradient flow, in one place (`_result`): an op whose
inputs are all const has a const output and records nothing, and a tape
never accumulates into a const tensor. Record features, labels and masks
are const, and so are parameters frozen for a training phase, so the tape
does no gradient work on paths nothing can learn from. Beyond that rule,
an op skips only the matmul that would produce a const input's gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ShapeMismatch

_ACTIVE_TAPE: list["Tape"] = []


class Tensor:
    """A (rows, cols) matrix of float64 values."""

    __slots__ = ("values", "const")

    def __init__(self, values, const: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ShapeMismatch("tensor", arr.shape)
        self.values = arr
        self.const = const

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeMismatch("item", self.shape)
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, const={self.const})"


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

    def _accum(self, t: Tensor, g: np.ndarray, own: bool = False) -> None:
        """Add g to t's gradient buffer unless t is const. own=True
        promises g is a fresh array the tape may keep and mutate."""
        if t.const:
            return
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


def _result(arr: np.ndarray, *inputs: Tensor) -> tuple[Tensor, Tape | None]:
    """Wrap an op's output arr (already 2-D float64) and return the tape
    its backward goes on: None when no tape is active, or when every input
    is const, which also makes the output const."""
    out = Tensor.__new__(Tensor)
    out.values = arr
    for x in inputs:
        if not x.const:
            out.const = False
            return out, _ACTIVE_TAPE[-1] if _ACTIVE_TAPE else None
    out.const = True
    return out, None


# ---------------------------------------------------------------------------
# primitives


def _affine_grads(t: Tape, x: Tensor, w: Tensor, b: Tensor, gz: np.ndarray) -> None:
    """Accumulate the gradients of z = x @ w + b given gz = d(loss)/dz; the
    matmul for x's gradient is skipped when x is const."""
    if not x.const:
        t._accum(x, gz @ w.values.T, own=True)
    t._accum(w, x.values.T @ gz, own=True)
    t._accum(b, gz.sum(axis=0, keepdims=True), own=True)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with a (1, m) bias row, recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("affine", x.shape, w.shape, b.shape)
    out, t = _result(x.values @ w.values + b.values, x, w, b)
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b):
            _affine_grads(t, x, w, b, g)
        t._ops.append((out, backward))
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
    out, t = _result(acc, weights, *parts)
    if t is not None:
        def backward(g, t=t, weights=weights, parts=parts):
            wg = np.empty_like(weights.values)
            for j, p in enumerate(parts):
                t._accum(p, g * weights.values[:, j:j + 1], own=True)
                wg[:, j] = (g * p.values).sum(axis=1)
            t._accum(weights, wg, own=True)
        t._ops.append((out, backward))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatch("add", a.shape, b.shape)
    out, t = _result(a.values + b.values, a, b)
    if t is not None:
        def backward(g, t=t, a=a, b=b):
            t._accum(a, g)
            t._accum(b, g)
        t._ops.append((out, backward))
    return out


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python-float constant (not differentiated through)."""
    c = float(c)
    out, t = _result(x.values * c, x)
    if t is not None:
        def backward(g, t=t, x=x, c=c):
            t._accum(x, g * c, own=True)
        t._ops.append((out, backward))
    return out


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    pos = x.values > 0
    out, t = _result(np.where(pos, x.values, slope * x.values), x)
    if t is not None:
        def backward(g, t=t, x=x, pos=pos, slope=slope):
            t._accum(x, g * np.where(pos, 1.0, slope), own=True)
        t._ops.append((out, backward))
    return out


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
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
    out, t = _result(x.values * mask, x)
    if t is not None:
        def backward(g, t=t, x=x, mask=mask):
            t._accum(x, g * mask, own=True)
        t._ops.append((out, backward))
    return out


def softmax_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """softmax(x @ w + b) over the last axis, recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("softmax_affine", x.shape, w.shape, b.shape)
    z = x.values @ w.values + b.values
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    out, t = _result(z, x, w, b)
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b, s=z):
            gz = s * (g - (g * s).sum(axis=1, keepdims=True))
            _affine_grads(t, x, w, b, gz)
        t._ops.append((out, backward))
    return out


def softplus_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """softplus(x @ w + b), recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("softplus_affine", x.shape, w.shape, b.shape)
    z = x.values @ w.values + b.values
    sp = np.logaddexp(0.0, z)  # log(1 + e^z) without overflow
    out, t = _result(sp, x, w, b)
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b, z=z, sp=sp):
            gz = g * np.exp(z - sp)  # sigmoid(z), stable since z - sp <= 0
            _affine_grads(t, x, w, b, gz)
        t._ops.append((out, backward))
    return out


def relu_affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b), recorded as one op."""
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeMismatch("relu_affine", x.shape, w.shape, b.shape)
    z = x.values @ w.values + b.values
    pos = z > 0
    out, t = _result(np.where(pos, z, 0.0), x, w, b)
    if t is not None:
        def backward(g, t=t, x=x, w=w, b=b, pos=pos):
            gz = g * pos
            _affine_grads(t, x, w, b, gz)
        t._ops.append((out, backward))
    return out


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of x by a unique index vector (gradient scatters back)."""
    out, t = _result(x.values[idx], x)
    if t is not None:
        def backward(g, t=t, x=x, idx=idx):
            buf = np.zeros_like(x.values)
            buf[idx] = g
            t._accum(x, buf, own=True)
        t._ops.append((out, backward))
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
    out, t = _result(acc, *parts)
    if t is not None:
        def backward(g, t=t, parts=parts):
            for p in parts:
                t._accum(p, g)
        t._ops.append((out, backward))
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
    out, t = _result(np.array([[terms.sum()]]), logits)
    if t is not None:
        def backward(g, t=t, logits=logits, y=y, mask=mask, z=z, sp=sp):
            dz = np.exp(z - sp) - y
            if mask is not None:
                dz *= mask
            t._accum(logits, dz * g[0, 0], own=True)
        t._ops.append((out, backward))
    return out


def squared_error_sum(a: Tensor, target: np.ndarray) -> Tensor:
    """sum((a - target)^2) against a constant target."""
    if target.shape != a.shape:
        raise ShapeMismatch("squared_error_sum", a.shape, target.shape)
    resid = a.values - target
    out, t = _result(np.array([[(resid * resid).sum()]]), a)
    if t is not None:
        def backward(g, t=t, a=a, resid=resid):
            t._accum(a, (2.0 * g[0, 0]) * resid, own=True)
        t._ops.append((out, backward))
    return out


# ---------------------------------------------------------------------------
# parameter initialization


def fan_in_uniform(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) init; fan_in = rows."""
    bound = 1.0 / np.sqrt(max(rows, 1))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)))
