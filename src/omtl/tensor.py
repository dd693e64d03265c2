"""Dense float64 tensors, a parameter arena, and tape-based reverse-mode
differentiation.

Activations are (rows, cols) matrices; scalars are (1, 1). Every trainable
parameter is a `Parameter`: its values are a view into its `Arena`'s one
flat float64 buffer, and a tape accumulates its gradient into one flat
buffer laid out like the arena. The experts, and every node's parameters
of one kind, sit next to each other in the arena, so a `Block` views them
as one (L, rows, cols) stack without copying; a `PaddedBlock` gathers
parent gates, whose widths differ per node, into a stack padded to the
widest.

Ops record a backward closure on the active Tape, and Tape.backward
replays them in strict reverse order, handing each closure the tape; no
closure holds its tape, so a tape and the activations it keeps are freed
as soon as the last reference to it goes. The op set is exactly the
model's stages, each one op with a hand-written backward, and a training
step records at most one of each, whatever the depth or width of the
ontology:
- `expert_layer`: every expert's affine map, leaky ReLU and inverted
  dropout over every row;
- over all (row, node) pairs of the batch: `expert_mix` (expert gate
  softmax and mixture), `represent` (representation layers, with parent
  gate softmax and parent mixture when a `Route` is given, level by
  level) and `multitask_loss` (ReLU reconstructions and their squared
  error L2, outcome heads and their weighted binary cross-entropy L1, and
  the batch's loss L1 + lambda * L2). A pair op reads each pair's weights
  from the stack at the pair's node; `Segments` groups the pairs by node.

Constness decides gradient flow, in one place (`_result`): an op whose
inputs are all const has a const output and records nothing, and a tape
never accumulates into a const tensor. Record features, labels and masks
are const. A parameter, block or padded block is const exactly when its
span of the arena lies outside the arena's `trainable` slice, which a
training phase narrows to the span it trains; so the tape does no
gradient work on paths nothing can learn from. Beyond that rule, an op
skips only the products that would produce a const input's gradient.

The kernel rule: trained bits are pinned, so a faster kernel must do every
product and every sum of the one it replaces, each sum in the same order.
`np.bincount`, a fancy-index += over distinct indices and a loop over
fewer than 8 columns keep the order of `np.add.at` and of numpy's row
reductions; `np.add.reduceat` used as a scatter, numpy's pairwise sums
over 8 or more entries, and a BLAS product of another shape do not.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import NumericalError, ShapeMismatch

_ACTIVE_TAPE: list["Tape"] = []

# A pair op's batched product reads a copy of each row's weights, rows *
# r * c floats in all; once that exceeds this many floats per member, one
# BLAS product per member is cheaper. Timed per layer shape of the model
# on one core, the per-member products overtake the batched product at
# 600-2,500 floats per member. The two paths differ in the last bit, so a
# new threshold moves trained bits and scores: it is not a free speed
# knob, and re-fitting it re-pins the hashes with a stated reason.
_GATHER_PER_MEMBER = 1024


class Tensor:
    """A (rows, cols) matrix of float64 values; values of any other number
    of dimensions are a ShapeMismatch."""

    __slots__ = ("values", "const")

    def __init__(self, values, const: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts,
                                                               counts)


def _outside_trainable(self) -> bool:
    """Whether the span of a parameter or block misses its arena's
    trainable slice: the `const` of all three."""
    trainable = self.arena.trainable
    return self.span.stop <= trainable.start or self.span.start >= trainable.stop


class Parameter(Tensor):
    """A tensor whose values are the span `span` of its arena's buffer."""

    __slots__ = ("arena", "span")

    const = property(_outside_trainable)

    def __reduce__(self):
        """A copy or an unpickled parameter is the parameter of the same
        name in the copy of its arena."""
        name = next(n for n, p in self.arena.params.items() if p is self)
        return _arena_param, (self.arena, name)


def _arena_param(arena: "Arena", name: str) -> Parameter:
    return arena.params[name]


class Arena:
    """All parameters of a model as views into one flat float64 buffer.

    Parameters are laid out in the order given, each row-major, so a run
    of same-shape parameters is one (L, rows, cols) array and a run of
    parameters is one contiguous slice. `values` is the buffer; a tape
    keeps each parameter's gradient at the same offset of a buffer of the
    same size. `trainable` is the slice of the buffer a training phase
    trains, the whole buffer by default.
    """

    def __init__(self, shapes):
        shapes = list(shapes)
        self.values = np.zeros(sum(rows * cols for _, (rows, cols) in shapes))
        self.params: dict[str, Parameter] = {}
        offset = 0
        # each run of same-shape parameters is viewed as one stack, whose
        # members are the parameters' views
        for (rows, cols), run in groupby(shapes, key=itemgetter(1)):
            names = [name for name, _ in run]
            size = rows * cols
            stack = self.values[offset:offset + len(names) * size]
            for name, view in zip(names, stack.reshape(len(names), rows, cols)):
                if name in self.params:
                    raise ValueError(f"parameter {name!r} laid out twice")
                p = self.params[name] = Parameter.__new__(Parameter)
                p.span, p.values, p.arena = slice(offset, offset + size), view, self
                offset += size
        self.trainable = slice(0, offset)

    def __reduce__(self):
        """A copy or an unpickled arena is laid out anew from its shapes, so
        its parameters are views of its own buffer."""
        return _rebuild_arena, ([(n, p.values.shape) for n, p in self.params.items()],
                                self.values, self.trainable)

    @property
    def size(self) -> int:
        return self.values.size

    def block(self, names) -> "Block":
        """Consecutive same-shape parameters as one (L, rows, cols) stack."""
        members = [self.params[n] for n in names]
        shape = members[0].values.shape
        if any(p.values.shape != shape for p in members):
            raise ValueError("a block needs parameters of one shape")
        if any(a.span.stop != b.span.start for a, b in zip(members, members[1:])):
            raise ValueError("parameters are not consecutive in the arena")
        span = slice(members[0].span.start, members[-1].span.stop)
        return Block(self, span, (len(members), *shape))

    def padded_block(self, names, fill: float) -> "PaddedBlock":
        """Parameters of one row count and differing column counts as a
        (L, rows, widest) stack whose missing columns read `fill`."""
        members = [self.params[n] for n in names]
        rows = members[0].values.shape[0]
        cols = np.array([p.values.shape[1] for p in members])
        starts = np.array([p.span.start for p in members])
        width, sizes = cols.max(), rows * cols
        src = _ranges(starts, sizes)
        # entry k of member j is its row k // cols, column k % cols
        r, c = np.divmod(src - np.repeat(starts, sizes), np.repeat(cols, sizes))
        dst = (np.repeat(np.arange(len(members)) * rows, sizes) + r) * width + c
        return PaddedBlock(self, slice(src.min(), src.max() + 1),
                           (len(members), rows, width), src, dst, fill)


def _rebuild_arena(shapes, values: np.ndarray, trainable: slice) -> Arena:
    arena = Arena(shapes)
    arena.values[...] = values
    arena.trainable = trainable
    return arena


class Block:
    """Same-shape parameters (the experts, or every node's layer of one
    kind) stacked (L, rows, cols); `values` is a view of the arena."""

    __slots__ = ("arena", "span", "shape", "values")

    def __init__(self, arena: Arena, span: slice, shape: tuple[int, int, int]):
        self.arena, self.span, self.shape = arena, span, shape
        self.values = arena.values[span].reshape(shape)

    const = property(_outside_trainable)

    def add_grad(self, buf: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
        """Add g (len(idx), rows, cols) to members idx (ascending) in buf."""
        view = buf[self.span].reshape(self.shape)
        if idx.size == self.shape[0]:
            view += g
        else:
            view[idx] += g


class PaddedBlock:
    """Parameters of differing widths gathered into a padded stack: entry
    src[i] of the arena is entry dst[i] of the flattened stack. Its span
    is the range that covers every src entry, so it may also cover
    parameters it does not gather."""

    __slots__ = ("arena", "span", "shape", "src", "dst", "fill")

    def __init__(self, arena, span, shape, src, dst, fill):
        self.arena, self.span, self.shape = arena, span, shape
        self.src, self.dst, self.fill = src, dst, fill

    const = property(_outside_trainable)

    @property
    def values(self) -> np.ndarray:
        out = np.full(self.shape, self.fill)
        out.reshape(-1)[self.dst] = self.arena.values[self.src]
        return out

    def add_grad(self, buf: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
        full = np.zeros(self.shape)
        full[idx] = g
        buf[self.src] += full.reshape(-1)[self.dst]


class Segments:
    """Rows grouped into runs by the block member whose weights they use:
    row p uses member `of[p]`, which never decreases; member `members[i]`
    owns rows starts[i]:ends[i]."""

    __slots__ = ("of", "members", "starts", "ends")

    def __init__(self, of: np.ndarray):
        first = np.ones(of.size, dtype=bool)
        np.not_equal(of[1:], of[:-1], out=first[1:])
        self.of = of
        self.starts = np.flatnonzero(first)
        self.ends = np.append(self.starts[1:], of.size)
        self.members = of[self.starts]

    @staticmethod
    def from_runs(of: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  members: np.ndarray) -> "Segments":
        """The segments of of whose runs a caller has already found (a
        `model.BatchPlan` slices them from arrays built for a whole epoch)."""
        seg = Segments.__new__(Segments)
        seg.of, seg.starts, seg.ends, seg.members = of, starts, ends, members
        return seg

    def runs(self):
        return zip(self.members.tolist(), self.starts.tolist(), self.ends.tolist())


class Tape:
    """Records primitive ops in execution order for one backward replay."""

    def __init__(self):
        self._ops: list[tuple[Tensor, object]] = []
        self._grads: dict[int, np.ndarray] = {}
        self._arena_grads: dict[Arena, np.ndarray] = {}
        self._consumed = False

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE_TAPE.pop()

    def arena_grads(self, arena: Arena) -> np.ndarray:
        """This tape's gradient buffer for arena's parameters (zeros until
        an op accumulates into it)."""
        buf = self._arena_grads.get(arena)
        if buf is None:
            buf = self._arena_grads[arena] = np.zeros(arena.size)
        return buf

    def _accum(self, t: Tensor, g: np.ndarray, own: bool = False) -> None:
        """Add g to t's gradient buffer unless t is const. own=True
        promises g is a fresh array the tape may keep and mutate."""
        if t.const:
            return
        if type(t) is Parameter:
            self.arena_grads(t.arena)[t.span] += g.reshape(-1)
            return
        key = id(t)
        buf = self._grads.get(key)
        if buf is None:
            self._grads[key] = g if own else g.copy()
        else:
            buf += g

    def _accum_block(self, block, idx: np.ndarray, g: np.ndarray) -> None:
        """Add g to the gradients of block members idx unless block is const."""
        if not block.const:
            block.add_grad(self.arena_grads(block.arena), idx, g)

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
            backward(g, self)

    def gradient(self, t: Tensor) -> np.ndarray:
        """Gradient of the loss w.r.t. t; exact zeros if t never reached it."""
        if type(t) is Parameter:
            buf = self._arena_grads.get(t.arena)
            return np.zeros_like(t.values) if buf is None \
                else buf[t.span].reshape(t.values.shape)
        g = self._grads.get(id(t))
        if g is None:
            return np.zeros_like(t.values)
        return g

    def gradients(self, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
        return {name: self.gradient(p) for name, p in params.items()}


def _result(arr: np.ndarray, *inputs) -> tuple[Tensor, Tape | None]:
    """Wrap an op's output arr (already 2-D float64) and return the tape
    its backward goes on: None when no tape is active, or when every input
    (tensor or block) is const, which also makes the output const."""
    out = Tensor.__new__(Tensor)
    out.values = arr
    for x in inputs:
        if not x.const:
            out.const = False
            return out, _ACTIVE_TAPE[-1] if _ACTIVE_TAPE else None
    out.const = True
    return out, None


# ---------------------------------------------------------------------------
# batch op: the experts over the whole batch


def expert_layer(x: Tensor, w: Block, b: Block, slope: float, rate: float,
                 rng: np.random.Generator | None, train: bool) -> Tensor:
    """Every expert over every row, as one (rows, E * de) tensor whose
    columns e*de:(e+1)*de hold expert e's output

        h_e = dropout(leaky_relu(x @ w[e] + b[e], slope), rate).

    Inverted dropout scales kept entries by 1/(1-rate). It runs only in
    train mode with rate > 0, as one (E, rows, de) uniform draw: expert e
    gets the numbers that E separate (rows, de) draws in expert order would
    give it. Otherwise nothing is drawn from rng.
    """
    n_exp, d, de = w.shape
    if x.shape[1] != d or b.shape != (n_exp, 1, de):
        raise ShapeMismatch("expert_layer", x.shape, w.shape, b.shape)
    if not 0.0 <= rate < 1.0:
        raise NumericalError(f"dropout rate {rate} outside [0, 1)")
    z = np.matmul(x.values, w.values) + b.values  # (E, rows, de)
    pos = z > 0
    h = np.where(pos, z, slope * z)
    mask = None
    if train and rate > 0.0:
        mask = (rng.random(z.shape) >= rate) / (1.0 - rate)
        h *= mask
    n = x.shape[0]
    out, t = _result(h.transpose(1, 0, 2).reshape(n, n_exp * de), x, w, b)
    if t is not None:
        def backward(g, t, x=x, w=w, b=b, pos=pos, mask=mask, slope=slope):
            gz = np.ascontiguousarray(g.reshape(n, n_exp, de).transpose(1, 0, 2))
            if mask is not None:
                gz *= mask
            gz *= np.where(pos, 1.0, slope)
            if not x.const:
                t._accum(x, np.matmul(gz, w.values.transpose(0, 2, 1)).sum(axis=0),
                         own=True)
            every = np.arange(n_exp)
            if not w.const:
                t._accum_block(w, every, np.matmul(x.values.T, gz))
            t._accum_block(b, every, gz.sum(axis=1, keepdims=True))
        t._ops.append((out, backward))
    return out


# ---------------------------------------------------------------------------
# pair ops: one op per stage for all (row, node) pairs of a batch


def _per_member(rows: int, w: np.ndarray, seg: Segments) -> bool:
    """Whether rows rows of per-row weights drawn from stack w would reach
    `_GATHER_PER_MEMBER` floats per member of seg, so that one BLAS product
    per member is cheaper than one batched product over copies."""
    return rows * w.shape[1] * w.shape[2] >= _GATHER_PER_MEMBER * seg.members.size


def rowwise_affine(h: np.ndarray, w: np.ndarray, b: np.ndarray,
                   seg: Segments) -> tuple[np.ndarray, np.ndarray | None]:
    """z[p] = h[p] @ w[m] + b[m] for each row p and its member m = seg.of[p],
    from stacks w (L, r, c) and b (L, 1, c).

    Returns z and the per-row copies of the weights it gathered, or None
    when it ran one BLAS product per member instead (`_per_member`).
    """
    if _per_member(h.shape[0], w, seg):
        z = np.empty((h.shape[0], w.shape[2]))
        for m, s, e in seg.runs():
            np.matmul(h[s:e], w[m], out=z[s:e])
        z += b[seg.of, 0]
        return z, None
    wg = w[seg.of]
    return (np.matmul(h[:, None, :], wg) + b[seg.of])[:, 0, :], wg


def _scatter_rows(n: int, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """An (n, cols) array holding the sum of rows[i] at row idx[i]: one
    bincount over (row, column) keys, which adds each key's terms in index
    order from 0.0, as np.add.at does."""
    cols = rows.shape[1]
    keys = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
    return np.bincount(keys, weights=rows.reshape(-1),
                       minlength=n * cols).reshape(n, cols)


def _affine_grads(t: Tape, hv: np.ndarray, w, b, seg: Segments, gz: np.ndarray,
                  wg: np.ndarray | None, inputs: bool, params: bool = True
                  ) -> np.ndarray | None:
    """The gradients of z = rowwise_affine(hv, w.values, b.values, seg)
    given gz: returns the gradient w.r.t. hv when inputs is set (else None),
    from the weight copies wg that product gathered when it gathered, and
    accumulates those of the stacks w and b when params is set. The
    per-member path makes one pass over the members for both."""
    gh = gw = None
    if _per_member(hv.shape[0], w, seg):
        if inputs:
            wv = w.values
            gh = np.empty((gz.shape[0], wv.shape[1]))
        if params and not w.const:
            gw = np.empty((seg.members.size, hv.shape[1], gz.shape[1]))
        for i, (m, s, e) in enumerate(seg.runs()):
            if gh is not None:
                np.matmul(gz[s:e], wv[m].T, out=gh[s:e])
            if gw is not None:
                np.matmul(hv[s:e].T, gz[s:e], out=gw[i])
    else:
        if inputs:
            gh = np.matmul(gz[:, None, :], wg.transpose(0, 2, 1))[:, 0, :]
        if params and not w.const:
            # the per-row outer products with the wider axis innermost
            if gz.shape[1] >= hv.shape[1]:
                gw = np.add.reduceat(hv[:, :, None] * gz[:, None, :], seg.starts, axis=0)
            else:
                gw = np.add.reduceat(gz[:, :, None] * hv[:, None, :], seg.starts,
                                     axis=0).transpose(0, 2, 1)
    if gw is not None:
        t._accum_block(w, seg.members, gw)
    if params:
        t._accum_block(b, seg.members,
                       np.add.reduceat(gz, seg.starts, axis=0)[:, None, :])
    return gh


def _rowwise_grads(t: Tape, h: Tensor, hv: np.ndarray, src, w, b, seg: Segments,
                   gz: np.ndarray, wg: np.ndarray | None) -> None:
    """Accumulate the gradients of z = rowwise_affine(hv, w.values, b.values,
    seg) given gz. hv holds rows src of tensor h (all of h, in order, when
    src is None); const h skips its gradient."""
    gh = _affine_grads(t, hv, w, b, seg, gz, wg, inputs=not h.const)
    if gh is not None:
        t._accum(h, gh if src is None else _scatter_rows(h.shape[0], src, gh),
                 own=True)


def _row_reduce(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce over each row of a, as (rows, 1). Below 8 columns numpy
    reduces a row left to right, from the ufunc's identity where it has
    one (so a sum of -0.0 is 0.0), and a loop over the columns gives the
    same bits with cheaper calls; from 8 on it sums pairwise, and does it."""
    if a.shape[1] >= 8:
        return ufunc.reduce(a, axis=1, keepdims=True)
    out = a[:, :1].copy() if ufunc.identity is None else ufunc(a[:, :1], ufunc.identity)
    for j in range(1, a.shape[1]):
        ufunc(out, a[:, j:j + 1], out=out)
    return out


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, in place; entries of -inf get weight exactly 0."""
    z -= _row_reduce(np.maximum, z)
    np.exp(z, out=z)
    z /= _row_reduce(np.add, z)
    return z


def _softmax_grad(s: np.ndarray, gs: np.ndarray) -> np.ndarray:
    return s * (gs - _row_reduce(np.add, gs * s))


def _sigmoid_values(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def expert_mix(x: Tensor, xr: np.ndarray | None, experts: Tensor, n_exp: int,
               rows: np.ndarray, seg: Segments, w: Block | None = None,
               b: Block | None = None) -> tuple[Tensor, np.ndarray]:
    """Each pair's gated mixture of the n_exp expert outputs at its row,
    read from one (rows, n_exp * de) tensor as `expert_layer` lays it out:

        out[p] = sum_e s[p, e] * h_e[rows[p]],
        s[p] = softmax(xr[p] @ w[m] + b[m]),  m = seg.of[p],

    where xr is x.values[rows], gathered by the caller, which also reads
    it as the pairs' reconstruction targets. Without a gate (w None, and
    xr unread) every weight is 1/E: sb's single expert passes through, moe
    takes the mean. Returns the output and the weights s.
    """
    hr = experts.values[rows].reshape(rows.size, n_exp, -1)
    if w is None:
        s, wg = np.full((rows.size, n_exp), 1.0 / n_exp), None
    else:
        z, wg = rowwise_affine(xr, w.values, b.values, seg)
        s = _softmax_rows(z)
    acc = s[:, 0:1] * hr[:, 0]
    for e in range(1, n_exp):
        acc += s[:, e:e + 1] * hr[:, e]
    out, t = _result(acc, x, experts, *((w, b) if w is not None else ()))
    if t is not None:
        def backward(g, t, x=x, experts=experts, rows=rows, seg=seg, w=w, b=b,
                     hr=hr, s=s, xr=xr, wg=wg):
            if not experts.const:
                gh = (g[:, None, :] * s[:, :, None]).reshape(rows.size, -1)
                t._accum(experts, _scatter_rows(experts.shape[0], rows, gh),
                         own=True)
            if w is not None and not (x.const and w.const and b.const):
                gs = np.empty_like(s)
                for e in range(n_exp):
                    gs[:, e] = np.einsum("ij,ij->i", g, hr[:, e])
                _rowwise_grads(t, x, xr, rows, w, b, seg,
                               _softmax_grad(s, gs), wg)
        t._ops.append((out, backward))
    return out, s


class Route:
    """How `represent` routes pairs, in level order, through their parents.

    `levels` lists the levels that hold pairs, in order, each as (lo, hi,
    lseg, routed): pairs lo:hi, grouped by node as lseg (runs local to
    lo), and routed False for the first level, whose pairs read no parent.
    Pair p's k-th parent is the pair src[p, k] of an earlier level (0
    where p has fewer parents). One weight rule: a pair takes its first
    parent, src[p, 0], with weight exactly 1 (a softmax over one logit)
    and any others with weight 0, unless it is in `gated`; pairs in
    `gated` weigh their parents by softmax(xg @ w[m] + b[m]), m = gseg.of,
    over gate stacks padded to src's width with zero weight columns and
    -inf biases, which the softmax maps to weight exactly 0. So every pair
    of two or more parents must be gated; a first-level pair's weights
    are never read.
    """

    __slots__ = ("levels", "src", "gated", "xg", "gseg", "w", "b")

    def __init__(self, levels: list, src: np.ndarray,
                 gated: np.ndarray | None = None, xg: np.ndarray | None = None,
                 gseg: Segments | None = None, w: PaddedBlock | None = None,
                 b: PaddedBlock | None = None):
        self.levels, self.src, self.gated = levels, src, gated
        self.xg, self.gseg, self.w, self.b = xg, gseg, w, b

    def weights(self) -> np.ndarray:
        """Each pair's (pairs, width) parent weights."""
        s = np.zeros(self.src.shape)
        s[:, 0] = 1.0
        if self.w is not None:
            z, _ = rowwise_affine(self.xg, self.w.values, self.b.values, self.gseg)
            s[self.gated] = _softmax_rows(z)
        return s


def represent(mix: Tensor, w: Block, b: Block, seg: Segments,
              route: Route | None = None) -> Tensor:
    """Every pair's representation r[p] = softplus(pre[p] @ w[m] + b[m]),
    m = seg.of[p], in one (pairs, cols) buffer.

    Without a route pre = mix. With one, each pair adds its parents'
    gated mixture, pre[p] = mix[p] + sum_k s[p, k] * r[src[p, k]]: the
    forward pass runs the levels in order, so every representation a level
    reads was written by an earlier one, and the backward pass runs them
    in reverse, so a level's gradient is complete before it reaches the
    levels it read from.
    """
    n = mix.shape[0]
    if route is None:
        pre, s, levels = mix.values, None, [(0, n, seg, False)]
    else:
        pre, s, levels = mix.values.copy(), route.weights(), route.levels
    z = np.empty((n, w.shape[2]))
    rep = np.zeros_like(z)
    gathered = []
    for lo, hi, lseg, routed in levels:
        if routed:
            sl, src = s[lo:hi], route.src[lo:hi]
            parents = sl[:, 0:1] * rep[src[:, 0]]
            for k in range(1, src.shape[1]):
                parents += sl[:, k:k + 1] * rep[src[:, k]]
            pre[lo:hi] += parents
        z[lo:hi], wg = rowwise_affine(pre[lo:hi], w.values, b.values, lseg)
        gathered.append(wg)
        np.logaddexp(0.0, z[lo:hi], out=rep[lo:hi])  # log(1 + e^z) without overflow
    gates = () if route is None or route.w is None else (route.w, route.b)
    out, t = _result(rep, mix, w, b, *gates)
    if t is not None:
        def backward(g, t, mix=mix, w=w, b=b, seg=seg, route=route, levels=levels,
                     gathered=gathered, pre=pre, z=z, rep=rep, s=s):
            grep = g if route is None else g.copy()  # later levels add to earlier
            gz = np.empty_like(z)
            gpre = np.empty_like(pre)
            for (lo, hi, lseg, routed), wg in zip(reversed(levels), reversed(gathered)):
                # sigmoid(z), stable since z - rep <= 0
                np.multiply(grep[lo:hi], np.exp(z[lo:hi] - rep[lo:hi]), out=gz[lo:hi])
                if mix.const and not routed:
                    continue
                gpre[lo:hi] = _affine_grads(t, pre[lo:hi], w, b, lseg, gz[lo:hi], wg,
                                            inputs=True, params=False)
                if routed:
                    gp = s[lo:hi, :, None] * gpre[lo:hi, None, :]
                    np.add.at(grep, route.src[lo:hi].reshape(-1),
                              gp.reshape(-1, gp.shape[2]))
            t._accum(mix, gpre, own=True)
            _affine_grads(t, pre, w, b, seg, gz, None, inputs=False)
            if gates and not (route.w.const and route.b.const):
                gated = route.gated
                gs = (gpre[gated][:, None, :] * rep[route.src[gated]]).sum(axis=2)
                _affine_grads(t, route.xg, route.w, route.b, route.gseg,
                              _softmax_grad(s[gated], gs), None, inputs=False)
        t._ops.append((out, backward))
    return out


def multitask_loss(rep: Tensor, seg: Segments, recon_w: Block, recon_b: Block,
                   target: np.ndarray, heads: tuple | None, lam: float, inv: float
                   ) -> tuple[Tensor, float, float, np.ndarray, np.ndarray | None]:
    """A batch's loss l1 + lam * l2 from its pairs' representations rep.

    l2 = inv * sum_p ||relu(rep[p] @ recon_w[m] + recon_b[m]) - target[p]||^2,
    m = seg.of[p], against a constant target. heads, when given, is
    (src, hseg, w, b, y, weight), and l1 = inv * sum_i weight[i] *
    (softplus(z) - y[i] * z) for the head logit z = rep[src[i]] @ w[m] +
    b[m], m = hseg.of[i]: binary cross-entropy for p = sigmoid(z) that stays
    finite for any logit; weight 0 silences a term and its gradient exactly.

    Returns the (1, 1) loss, l1, l2, and the per-member sums of the squared
    errors over seg and of the head terms over hseg (None without heads).
    """
    if target.shape != (rep.shape[0], recon_w.shape[2]):
        raise ShapeMismatch("multitask_loss", rep.shape, recon_w.shape, target.shape)
    z, wg = rowwise_affine(rep.values, recon_w.values, recon_b.values, seg)
    pos = z > 0
    resid = np.where(pos, z, 0.0) - target
    sq = (resid * resid).sum(axis=1)
    l2 = float(sq.sum()) * inv
    l1, head_sums, head_params = 0.0, None, ()
    if heads is not None:
        src, hseg, w, b, y, weight = heads
        h = rep.values[src]
        hz, hwg = rowwise_affine(h, w.values, b.values, hseg)
        hz = hz[:, 0]
        sp = np.logaddexp(0.0, hz)
        terms = weight * (sp - y * hz)
        l1 = float(terms.sum()) * inv
        head_sums, head_params = np.add.reduceat(terms, hseg.starts), (w, b)
    out, t = _result(np.array([[l1 + lam * l2]]), rep, recon_w, recon_b, *head_params)
    if t is not None:
        def backward(g, t):
            g1 = g[0, 0] * inv
            if heads is not None:
                gz = (weight * (np.exp(hz - sp) - y) * g1)[:, None]
                _rowwise_grads(t, rep, h, src, w, b, hseg, gz, hwg)
            gz = (2.0 * (g1 * lam)) * resid * pos
            _rowwise_grads(t, rep, rep.values, None, recon_w, recon_b, seg, gz, wg)
        t._ops.append((out, backward))
    return out, l1, l2, np.add.reduceat(sq, seg.starts), head_sums
