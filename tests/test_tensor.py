import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from omtl import tensor as T
from omtl.errors import NumericalError, ShapeMismatch
from omtl.tensor import Segments, Tape, Tensor
from omtl.trainer import _FlatAdam

from conftest import arena_params, loss_sum, same_bits, sq_loss
from oracles import (ReferenceAdam, finite_difference_gradients, gathered_param_grads,
                     input_grad_loop, max_relative_error, param_grads_loop,
                     route_levels, rowwise_affine_loop, scatter_rows_add_at,
                     softmax_grad_numpy, softmax_rows_numpy)


def one_run(n: int) -> Segments:
    """n rows that all use member 0 of a block."""
    return Segments(np.zeros(n, dtype=np.intp))


def stacked(*arrays, const=False):
    """A block whose members hold the given same-shape arrays."""
    names = [f"m{i}" for i in range(len(arrays))]
    arena = next(iter(arena_params(dict(zip(names, arrays))).values())).arena
    if const:
        arena.trainable = slice(0, 0)
    return arena.block(names)


def identity_softmax(x: Tensor) -> np.ndarray:
    """Row-wise softmax of x: the weights of an expert gate with an
    identity weight and zero bias."""
    n, m = x.shape
    _, s = T.expert_mix(x, x.values, Tensor(np.zeros((n, m))), m, np.arange(n),
                        one_run(n), stacked(np.eye(m)), stacked(np.zeros((1, m))))
    return s


def one_expert(x: Tensor, rate: float, rng, train: bool, slope: float = 1.0) -> Tensor:
    """x through a single expert with an identity map: at slope 1 only
    dropout changes it."""
    d = x.shape[1]
    return T.expert_layer(x, stacked(np.eye(d)), stacked(np.zeros((1, d))), slope,
                          rate, rng, train)


class TestPrimitives:
    def test_softmax_symmetry(self):
        out = identity_softmax(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out, 1.0 / 3.0)

    def test_softmax_rows_sum_to_one(self, rng):
        for _ in range(50):
            x = Tensor(rng.normal(scale=5.0, size=(4, 6)))
            s = identity_softmax(x)
            assert (s >= 0).all()
            assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9

    def test_leaky_relu_definition(self):
        out = one_expert(Tensor([[-1.0, 2.0]]), 0.0, None, train=False, slope=0.01)
        assert out.values[0, 0] == -0.01
        assert out.values[0, 1] == 2.0

    def test_softplus_at_zero(self):
        out = T.represent(Tensor([[0.0]]), stacked([[1.0]]), stacked([[0.0]]),
                          one_run(1))
        assert out.item() == pytest.approx(math.log(2), abs=1e-15)

    @pytest.mark.parametrize("values", [[1.0, 2.0], 3.0, np.zeros((1, 2, 2))],
                             ids=["1-D", "0-D", "3-D"])
    def test_tensor_of_other_than_two_dims_is_rejected(self, values):
        with pytest.raises(ShapeMismatch, match="tensor"):
            Tensor(values)

    def test_affine_shape_error_names_primitive(self):
        with pytest.raises(ShapeMismatch, match=r"expert_layer.*\(2, 3\).*\(1, 4, 2\)"):
            T.expert_layer(Tensor(np.zeros((2, 3))), stacked(np.zeros((4, 2))),
                           stacked(np.zeros((1, 2))), 0.01, 0.0, None, False)

    def test_weighted_sum_matches_loop(self, rng):
        # the expert mixture: each row's gate-weighted sum of the parts
        x = Tensor(rng.normal(size=(4, 5)))
        parts = [rng.normal(size=(4, 5)) for _ in range(3)]
        seg = Segments(np.array([0, 0, 1, 1]))
        out, w = T.expert_mix(x, x.values, Tensor(np.hstack(parts)), 3, np.arange(4), seg,
                              stacked(*rng.normal(size=(2, 5, 3))),
                              stacked(*rng.normal(size=(2, 1, 3))))
        expect = sum(w[:, k:k + 1] * parts[k] for k in range(3))
        assert np.allclose(out.values, expect, atol=1e-15)

    def test_level_ops_use_each_rows_node_weights(self, rng, monkeypatch):
        # rows of three nodes, in short and long runs, through the batched
        # product and through one product per node, against a plain
        # per-row loop
        for run in (2, 40):
            node = np.repeat([0, 1, 2], run)
            x = rng.normal(size=(node.size, 4))
            w, b = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 1, 2))
            loop = np.array([x[p] @ w[node[p]] + b[node[p], 0]
                             for p in range(node.size)])
            for limit, gathers in ((1 << 62, True), (0, False)):
                monkeypatch.setattr(T, "_GATHER_PER_MEMBER", limit)
                z, wg = T.rowwise_affine(x, w, b, Segments(node))
                assert (wg is not None) == gathers
                assert np.abs(z - loop).max() <= 1e-12


def kernel_values(rng, shape) -> np.ndarray:
    """Normal values over six decades, with exact zeros and -0.0 entries."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    v[rng.random(shape) < 0.1] = -0.0
    return v


def kernel_segments(rng, rows: int, single_rows: bool = False) -> Segments:
    """rows rows over up to 8 members, each member's rows one run. With
    single_rows, every member but one, drawn, holds exactly one row."""
    if not single_rows:
        members = rng.choice(8, size=rng.integers(1, 9), replace=False)
        return Segments(np.sort(rng.choice(members, size=rows)))
    members = np.sort(rng.choice(8, size=min(rows, 8), replace=False))
    counts = np.ones(members.size, dtype=np.intp)
    counts[rng.integers(members.size)] += rows - members.size
    return Segments(np.repeat(members, counts))


# the kernels of the pair ops against the formulas they replace, bit for
# bit, on both sides of numpy's 8-wide switch to pairwise sums
KERNEL_SETTINGS = settings(derandomize=True, database=None, max_examples=400,
                           deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
ROWS = st.integers(0, 300)
WIDTHS = st.integers(1, 9)
# the model's layers are also 41 wide: the gate's rows, the reconstruction's
# columns
AFFINE_WIDTHS = st.one_of(WIDTHS, st.just(41))


class TestKernels:
    @KERNEL_SETTINGS
    @given(seed=SEEDS, n=st.integers(1, 300), k=ROWS, cols=WIDTHS)
    def test_scatter_rows_is_add_at(self, seed, n, k, cols):
        rng = np.random.default_rng(seed)
        idx = rng.integers(n, size=k)
        rows = kernel_values(rng, (k, cols))
        assert same_bits(T._scatter_rows(n, idx, rows), scatter_rows_add_at(n, idx, rows))

    @KERNEL_SETTINGS
    @given(seed=SEEDS, n=ROWS, cols=WIDTHS, padded=st.integers(0, 8))
    def test_softmax_and_its_gradient_are_numpys(self, seed, n, cols, padded):
        # a parent gate's padding columns carry -inf biases
        rng = np.random.default_rng(seed)
        z = kernel_values(rng, (n, cols))
        pad = min(padded, cols - 1)  # a row keeps one finite logit
        if pad:
            z[:, cols - pad:] = -np.inf
        s = T._softmax_rows(z.copy())
        assert same_bits(s, softmax_rows_numpy(z))
        gs = kernel_values(rng, (n, cols))
        assert same_bits(T._softmax_grad(s, gs), softmax_grad_numpy(s, gs))

    @KERNEL_SETTINGS
    @given(seed=SEEDS, n=st.integers(1, 300), r=AFFINE_WIDTHS, c=AFFINE_WIDTHS,
           per_member=st.booleans(), inputs=st.booleans(), single_rows=st.booleans())
    # np.dot would multiply this 1x1 product as a scalar, giving -0.0 for
    # the 0.0 of the BLAS call
    @example(seed=0, n=1, r=1, c=1, per_member=True, inputs=True, single_rows=False)
    def test_affine_and_its_gradients_are_the_member_loops(self, seed, n, r, c,
                                                           per_member, inputs,
                                                           single_rows):
        rng = np.random.default_rng(seed)
        seg = kernel_segments(rng, n, single_rows)
        h, gz = kernel_values(rng, (n, r)), kernel_values(rng, (n, c))
        w = stacked(*kernel_values(rng, (8, r, c)))
        b = stacked(*kernel_values(rng, (8, 1, c)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_GATHER_PER_MEMBER", 0 if per_member else 1 << 62)
            z, wg = T.rowwise_affine(h, w.values, b.values, seg)
            tape = Tape()
            gh = T._affine_grads(tape, h, w, b, seg, gz, wg, inputs=inputs)
        runs = list(seg.runs())
        if per_member:
            assert same_bits(z, rowwise_affine_loop(h, w.values, b.values, runs))
            expect_w, expect_b = param_grads_loop(h, gz, seg.starts, runs)
            if inputs:
                assert same_bits(gh, input_grad_loop(gz, w.values, runs))
        else:
            expect_w, expect_b = gathered_param_grads(h, gz, seg.starts)
        assert (gh is None) == (not inputs)
        for block, expect in ((w, expect_w), (b, expect_b)):
            full = np.zeros(block.shape)
            full[seg.members] += expect  # as the tape adds into its zeros
            got = tape.arena_grads(block.arena)[block.span].reshape(block.shape)
            assert same_bits(got, full)

    @KERNEL_SETTINGS
    @given(seed=SEEDS, n=st.integers(1, 300), n_exp=st.integers(1, 4), de=AFFINE_WIDTHS)
    def test_expert_weight_gradient_is_the_expert_loop(self, seed, n, n_exp, de):
        # the gradient w.r.t. each pair's expert weights s[p, e] is
        # g[p] . h_e[rows[p]], one einsum over every expert
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 10))
        x = Tensor(kernel_values(rng, (n, d)))
        experts = Tensor(kernel_values(rng, (n, n_exp * de)))
        rows = np.sort(rng.integers(n, size=n))
        seg = kernel_segments(rng, n)
        w = stacked(*kernel_values(rng, (8, d, n_exp)))
        b = stacked(*kernel_values(rng, (8, 1, n_exp)))
        g = kernel_values(rng, (n, de))
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_softmax_grad",
                       lambda s, gs: seen.append(gs) or softmax_grad_numpy(s, gs))
            with Tape() as tape:
                T.expert_mix(x, x.values[rows], experts, n_exp, rows, seg, w, b)
            (_, backward), = tape._ops
            backward(g, tape)
        hr = experts.values[rows].reshape(n, n_exp, de)
        expect = np.empty((n, n_exp))
        for e in range(n_exp):
            expect[:, e] = np.einsum("ij,ij->i", g, hr[:, e])
        assert len(seen) == 1 and same_bits(seen[0], expect)


def level_case(name: str, cols: int, run):
    """A constness case: run(x, w, b) applies an op to an input x and the
    (3, cols) weight and (1, cols) bias parameters w and b."""
    return pytest.param(cols, run, id=name)


def _block(p, fill=None):
    names = [n for n, q in p.arena.params.items() if q is p]
    if fill is None:
        return p.arena.block(names)
    return p.arena.padded_block(names, fill)


def two_level_route(x: Tensor, w, b) -> T.Route:
    """Four pairs on two levels: pair 3 reads pairs 0, 1 and 2, gated by w
    and b as a parent gate over x's last row."""
    return T.Route(route_levels(np.zeros(4, dtype=np.intp), [0, 3, 4]),
                   np.array([[0, 0, 0]] * 3 + [[0, 1, 2]]), np.array([3]), x.values[3:],
                   one_run(1), _block(w, 0.0), _block(b, -np.inf))


# the representation op runs as "softplus_affine" without a route and as
# "parent_mix" with one, where w and b are also the parent gate
LEVEL_CASES = [
    level_case("expert_layer", 2, lambda x, w, b: T.expert_layer(
        x, _block(w), _block(b), 0.01, 0.0, None, False)),
    level_case("softplus_affine", 2, lambda x, w, b: T.represent(
        x, _block(w), _block(b), one_run(4))),
    level_case("expert_mix", 3, lambda x, w, b: T.expert_mix(
        x, x.values, x, 3, np.arange(4), one_run(4), _block(w), _block(b))[0]),
    level_case("parent_mix", 3, lambda x, w, b: T.represent(
        x, _block(w), _block(b), one_run(4), two_level_route(x, w, b))),
    level_case("multitask_loss", 2, lambda x, w, b: T.multitask_loss(
        x, one_run(4), _block(w), _block(b), np.ones((4, 2)), None, 0.5, 0.25)[0]),
    # one-column reconstructions, so the heads can share their weights
    level_case("multitask_loss_heads", 1, lambda x, w, b: T.multitask_loss(
        x, one_run(4), _block(w), _block(b), np.ones((4, 1)),
        (np.arange(4), one_run(4), _block(w), _block(b),
         np.array([1.0, 0.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 1.0])),
        0.5, 0.25)[0]),
]


def weights(rng, cols: int, const: bool):
    p = arena_params({"w": rng.normal(size=(3, cols)), "b": rng.normal(size=(1, cols))})
    if const:
        p["w"].arena.trainable = slice(0, 0)
    return p["w"], p["b"]


class TestConstness:
    @pytest.mark.parametrize("cols, op", LEVEL_CASES)
    def test_all_const_inputs_record_nothing(self, rng, cols, op):
        x = Tensor(rng.normal(size=(4, 3)), const=True)
        w, b = weights(rng, cols, const=True)
        with Tape() as tape:
            out = op(x, w, b)
            assert out.const
            assert tape._ops == []
            fixed = sq_loss(out, np.zeros(out.shape))
            free = Tensor(rng.normal(size=out.shape))
            loss = loss_sum(fixed, sq_loss(free, np.zeros(out.shape)))
        tape.backward(loss)
        assert fixed.const and len(tape._ops) == 2
        assert id(x) not in tape._grads and id(out) not in tape._grads
        assert id(fixed) not in tape._grads
        assert w.arena not in tape._arena_grads
        assert np.array_equal(tape.gradient(w), np.zeros(w.shape))
        assert np.array_equal(tape.gradient(free), 2.0 * free.values)

    @pytest.mark.parametrize("cols, op", LEVEL_CASES)
    def test_const_weights_under_trainable_input(self, rng, cols, op):
        # a frozen layer still carries the gradient back to its input
        x = Tensor(rng.normal(size=(4, 3)))
        w, b = weights(rng, cols, const=True)
        with Tape() as tape:
            out = op(x, w, b)
            loss = sq_loss(out, np.zeros(out.shape))
        tape.backward(loss)
        assert not out.const
        assert w.arena not in tape._arena_grads
        assert np.abs(tape.gradient(x)).max() > 0.0

    def test_take_rows_of_const_is_const(self, rng):
        # an ungated mixture only takes rows of its experts
        experts = Tensor(rng.normal(size=(4, 6)), const=True)
        x = Tensor(rng.normal(size=(4, 3)), const=True)
        with Tape() as tape:
            rows = np.array([0, 2])
            out, _ = T.expert_mix(x, x.values[rows], experts, 2, rows, one_run(2))
        assert out.const
        assert tape._ops == []


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        state = rng.bit_generator.state
        out = one_expert(x, 0.5, rng, train=False)
        assert np.array_equal(out.values, x.values)
        assert rng.bit_generator.state == state  # nothing drawn

    def test_train_mode_preserves_expectation(self):
        # inverted scaling: E[out] == x, checked over >= 1e5 draws
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((1000, 1)))
        n = 200_000
        total = 0.0
        for _ in range(n // 1000):
            total += one_expert(x, 0.3, rng, train=True).values.sum()
        assert abs(total / n - 1.0) < 0.01
        state = rng.bit_generator.state
        assert np.array_equal(one_expert(x, 0.0, rng, train=True).values, x.values)
        assert rng.bit_generator.state == state

    def test_identical_seed_identical_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = one_expert(x, 0.5, np.random.default_rng(3), train=True)
        b = one_expert(x, 0.5, np.random.default_rng(3), train=True)
        assert (a.values == b.values).all()

    def test_train_mode_matches_per_expert_loop(self, rng):
        # the dropout stream: expert e's mask is the e-th (rows, de) draw,
        # scaled as inverted dropout scales it, 1/(1-rate) times the keep flag
        n, d, de, rate, slope = 6, 4, 3, 0.4, 0.01
        x = rng.normal(size=(n, d))
        w, b = rng.normal(size=(3, d, de)), rng.normal(size=(3, 1, de))
        out = T.expert_layer(Tensor(x, const=True), stacked(*w), stacked(*b), slope,
                             rate, np.random.default_rng(11), True)
        draws = np.random.default_rng(11)
        loop = []
        for e in range(3):
            z = x @ w[e] + b[e]
            leaky = np.where(z > 0, z, slope * z)
            loop.append(leaky * ((draws.random((n, de)) >= rate) / (1 - rate)))
        expect = np.hstack(loop)
        assert (expect < 0).any() and (expect == 0).any()
        assert np.array_equal(out.values, expect)


# the composed check's toy: nodes A, B on level 0, C (parent A) and D
# (parents A, B) on level 1, E (parents A, B, D) on level 2, over rows 0-3;
# row 2 is in both C and D. PAIR_ROWS and PAIR_NODE list the 14 (row, node)
# pairs node-major; PAIR_SRC holds each pair's parents' pairs.
PAIR_ROWS = np.array([0, 1, 2, 3, 1, 2, 3, 0, 2, 1, 2, 3, 2, 3])
PAIR_NODE = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4, 4])
PAIR_SRC = np.array([[0, 0, 0]] * 7 + [[0, 0, 0], [2, 0, 0],
                                       [1, 4, 0], [2, 5, 0], [3, 6, 0],
                                       [2, 5, 10], [3, 6, 11]])


def composed_graph_check(rng, trials: int = 6) -> None:
    """Finite differences against the tape on a random small composite of
    every op: three experts with dropout, expert gates at every node and
    the three-level toy above routed through `represent`, where D's
    two-parent gate is padded to E's three parents, then reconstructions
    at every pair and one head at each of C, D and E."""
    seg = Segments(PAIR_NODE)
    route_arrays = (route_levels(PAIR_NODE, [0, 7, 12, 14]), PAIR_SRC, np.arange(9, 14))
    for trial in range(trials):
        shapes = {"x": (4, 4), "pDw": (4, 2), "pEw": (4, 3), "pDb": (1, 2),
                  "pEb": (1, 3)}
        # each kind's weights, then its biases, so each is one block
        for kind, owners, rows, cols in (("e", "012", 4, 2), ("g", "ABCDE", 4, 3),
                                         ("r", "ABCDE", 2, 2), ("c", "ABCDE", 2, 4),
                                         ("h", "CDE", 2, 1)):
            shapes.update({f"{kind}{o}w": (rows, cols) for o in owners})
            shapes.update({f"{kind}{o}b": (1, cols) for o in owners})
        # draws at scale 0.5 keep softplus, softmax and sigmoid out of
        # saturation, where gradient entries shrink below what a central
        # difference resolves to the relative error checked below
        params = arena_params({n: rng.normal(scale=0.5, size=s)
                               for n, s in shapes.items()})
        arena = params["x"].arena

        def blk(kind: str, nodes: str = "ABCDE"):
            return (arena.block([f"{kind}{n}w" for n in nodes]),
                    arena.block([f"{kind}{n}b" for n in nodes]))

        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        weight = np.array([1.0, 0.0, 1.0, 0.5, 1.0, 1.0, 1.0])
        target = rng.normal(size=(14, 4))
        gate_in = rng.normal(size=(5, 4))  # parent gates read const features
        route = T.Route(*route_arrays, gate_in, Segments(np.array([0, 0, 0, 1, 1])),
                        arena.padded_block(["pDw", "pEw"], 0.0),
                        arena.padded_block(["pDb", "pEb"], -np.inf))

        def forward() -> Tensor:
            x = params["x"]
            h = T.expert_layer(x, *blk("e", "012"), 0.01, 0.3,
                               np.random.default_rng(trial), True)
            mix, _ = T.expert_mix(x, x.values[PAIR_ROWS], h, 3, PAIR_ROWS, seg, *blk("g"))
            rep = T.represent(mix, *blk("r"), seg, route)
            heads = (np.arange(7, 14), Segments(np.array([0, 0, 1, 1, 1, 2, 2])),
                     *blk("h", "CDE"), y, weight)
            return T.multitask_loss(rep, seg, *blk("c"), target, heads, 0.05, 0.25)[0]

        with Tape() as tape:
            loss = forward()
        tape.backward(loss)
        analytic = tape.gradients(params)
        numeric = finite_difference_gradients(lambda: forward().item(), params)
        assert max_relative_error(analytic, numeric) < 1e-4


def loss_case(rng):
    """A multitask loss over six pairs of three nodes, with representations
    as a parameter, so finite differences reach every input of the op.
    Heads x and y sit on node 1 and head z on node 2; pair 2's term at head
    y has weight 0. Returns the parameters, the op's other inputs, and a function
    running the op on them."""
    shapes = {"rep": (6, 3)}
    for kind, owners, cols in (("c", "012", 4), ("h", "xyz", 1)):
        shapes.update({f"{kind}{o}w": (3, cols) for o in owners})
        shapes.update({f"{kind}{o}b": (1, cols) for o in owners})
    params = arena_params({n: rng.normal(size=s) for n, s in shapes.items()})
    arena = params["rep"].arena
    case = dict(node=np.array([0, 0, 1, 1, 2, 2]), target=np.abs(rng.normal(size=(6, 4))),
                src=np.array([2, 3, 2, 3, 4, 5]), head=np.array([0, 0, 1, 1, 2, 2]),
                y=np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
                weight=np.array([1.0, 0.5, 0.0, 1.5, 2.0, 1.0]), lam=0.3, inv=0.25)

    def blk(kind, owners):
        return (arena.block([f"{kind}{o}w" for o in owners]),
                arena.block([f"{kind}{o}b" for o in owners]))

    def run():
        heads = (case["src"], Segments(case["head"]), *blk("h", "xyz"), case["y"],
                 case["weight"])
        return T.multitask_loss(params["rep"], Segments(case["node"]), *blk("c", "012"),
                                case["target"], heads, case["lam"], case["inv"])

    return params, case, run


class TestMultitaskLoss:
    @pytest.mark.parametrize("limit", [0, 1 << 62], ids=["per-member", "batched"])
    def test_matches_finite_differences_on_every_input(self, rng, monkeypatch, limit):
        monkeypatch.setattr(T, "_GATHER_PER_MEMBER", limit)
        params, _, run = loss_case(rng)
        with Tape() as tape:
            loss = run()[0]
        tape.backward(loss)
        analytic = tape.gradients(params)
        numeric = finite_difference_gradients(lambda: run()[0].item(), params)
        assert all(np.abs(g).max() > 0.0 for g in analytic.values())
        assert max_relative_error(analytic, numeric) < 1e-6

    def test_values_match_a_loop(self, rng):
        params, case, run = loss_case(rng)
        p = {n: q.values for n, q in params.items()}
        sq = np.zeros(3)
        for i, m in enumerate(case["node"]):
            recon = np.maximum(p["rep"][i] @ p[f"c{m}w"] + p[f"c{m}b"][0], 0.0)
            sq[m] += ((recon - case["target"][i]) ** 2).sum()
        bce = np.zeros(3)
        for i, h in enumerate(case["head"]):
            o = "xyz"[h]
            prob = 1.0 / (1.0 + math.exp(-(p["rep"][case["src"][i]] @ p[f"h{o}w"]
                                           + p[f"h{o}b"][0])[0]))
            y = case["y"][i]
            bce[h] -= case["weight"][i] * (y * math.log(prob) + (1 - y) * math.log(1 - prob))
        loss, l1, l2, node_sums, head_sums = run()
        assert np.allclose(node_sums, sq, rtol=1e-12) and np.allclose(head_sums, bce,
                                                                      rtol=1e-12)
        assert l2 == pytest.approx(sq.sum() * case["inv"], rel=1e-12)
        assert l1 == pytest.approx(bce.sum() * case["inv"], rel=1e-12)
        assert loss.item() == l1 + case["lam"] * l2


class TestBackward:
    def test_linear_map_gradient(self, rng):
        # one expert at slope 1 without dropout is the affine map x @ w + b
        x = Tensor(rng.normal(size=(2, 4)), const=True)
        p = arena_params({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=(1, 3))})
        w, b = p["w"], p["b"]
        target = rng.normal(size=(2, 3))
        with Tape() as tape:
            loss = sq_loss(T.expert_layer(x, _block(w), _block(b), 1.0, 0.0, None, True),
                           target)
        tape.backward(loss)
        resid = 2.0 * (x.values @ w.values + b.values - target)
        assert np.allclose(tape.gradient(w), x.values.T @ resid, atol=1e-14)
        assert np.allclose(tape.gradient(b), resid.sum(axis=0, keepdims=True),
                           atol=1e-14)

    def test_unused_parameter_gets_exact_zeros(self, rng):
        w = arena_params({"w": rng.normal(size=(3, 3))})["w"]
        other = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = sq_loss(other, np.zeros((2, 2)))
        tape.backward(loss)
        assert (tape.gradient(w) == 0.0).all()
        assert tape.gradient(w).shape == (3, 3)

    def test_loss_must_be_scalar(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            y = one_expert(x, 0.0, None, train=False, slope=0.01)
        with pytest.raises(ShapeMismatch):
            tape.backward(y)

    def test_tape_single_use(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = sq_loss(x, np.zeros((2, 2)))
        tape.backward(loss)
        with pytest.raises(NumericalError, match="consumed"):
            tape.backward(loss)

    def test_composed_graph_matches_finite_differences(self, rng):
        composed_graph_check(rng)

    def test_composed_graph_per_member_products(self, rng, monkeypatch):
        # the same graph with every pair op on one product per member
        monkeypatch.setattr(T, "_GATHER_PER_MEMBER", 0)
        composed_graph_check(rng)

    @pytest.mark.parametrize("seed", range(20))
    def test_composed_graph_on_any_seed(self, seed, monkeypatch):
        # both product paths, one draw each
        for limit in (0, 1 << 62):
            monkeypatch.setattr(T, "_GATHER_PER_MEMBER", limit)
            composed_graph_check(np.random.default_rng(seed), trials=1)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(3, 3)))
            w = stacked(rng.normal(size=(3, 3)))
            b = stacked(rng.normal(size=(1, 3)))
            with Tape() as tape:
                h = T.represent(
                    T.expert_layer(x, w, b, 0.01, 0.4, np.random.default_rng(5), True),
                    w, b, one_run(3))
                loss = sq_loss(h, np.zeros((3, 3)))
            tape.backward(loss)
            return loss.item(), tape.gradient(w.arena.params["m0"]).copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert (g1 == g2).all()


def adam_on(adam: _FlatAdam, loss_fn) -> None:
    """One optimizer step on the gradients of loss_fn() through a Tape."""
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    adam.step(tape)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = arena_params({"w": [[1.5, -2.0]]})
        other = Tensor([[0.3]])
        before = p["w"].values.copy()
        adam_on(_FlatAdam(p["w"].arena, lr=0.001),
                lambda: sq_loss(other, np.zeros((1, 1))))
        assert (p["w"].values == before).all()

    def test_nothing_trainable_is_a_no_op(self):
        p = arena_params({"w": [[1.0]]})
        arena = p["w"].arena
        arena.trainable = slice(0, 0)
        adam = _FlatAdam(arena, lr=0.001)
        # widened again, so w has a nonzero gradient Adam must not apply
        arena.trainable = slice(0, arena.size)
        adam_on(adam, lambda: sq_loss(p["w"], np.zeros((1, 1))))
        assert p["w"].item() == 1.0

    def test_updates_only_its_span(self):
        p = arena_params({"w": [[1.0, 1.0]]})
        arena = p["w"].arena
        arena.trainable = slice(1, 2)
        # w overlaps the span, so the tape records its whole gradient
        adam_on(_FlatAdam(arena, lr=0.001),
                lambda: sq_loss(p["w"], np.zeros((1, 2))))
        assert p["w"].values[0, 0] == 1.0
        assert p["w"].values[0, 1] < 1.0

    def test_first_step_unit_normalized(self):
        p = arena_params({"w": [[1.0]]})
        # (w - (w - 0.5))^2 has gradient exactly 1 at any w
        adam_on(_FlatAdam(p["w"].arena, lr=0.001),
                lambda: sq_loss(p["w"], np.array([[0.5]])))
        # off from 1 - lr only by the eps guard in the denominator
        assert p["w"].item() == pytest.approx(1.0 - 0.001, abs=1e-10)

    def test_non_finite_gradient_names_parameter(self):
        p = arena_params({"head.bias": [[0.0]], "head.weights": [[1.0]]})
        with pytest.raises(NumericalError, match="head.weights"):
            adam_on(_FlatAdam(p["head.bias"].arena, lr=0.001),
                    lambda: sq_loss(p["head.weights"], np.array([[np.nan]])))
        # in the last entry of the span, after finite entries whose sum
        # overflows
        for bad in (np.nan, np.inf, -np.inf):
            p = arena_params({"head.bias": np.zeros((1, 3)),
                              "head.weights": np.ones((2, 3))})
            arena = p["head.bias"].arena
            tape = Tape()
            g = tape.arena_grads(arena)
            g[:2] = 1e308
            g[-1] = bad
            with pytest.raises(NumericalError,
                               match="^non-finite gradient for parameter 'head.weights'$"):
                _FlatAdam(arena, lr=0.001).step(tape)
            assert (arena.values == np.repeat([0.0, 1.0], [3, 6])).all(), bad

    def test_finite_gradients_whose_sum_overflows_step(self):
        # the sum check fails, the entrywise one passes: one plain step
        p = arena_params({"a": [[0.5, -0.25]], "b": [[1.0, 2.0]]})
        arena = p["a"].arena
        values, g = arena.values.copy(), np.array([1e308, 0.5, 1e308, -3.0])
        tape = Tape()
        tape.arena_grads(arena)[:] = g
        with np.errstate(over="ignore"):
            _FlatAdam(arena, lr=0.01).step(tape)
            m, v = np.zeros(4), np.zeros(4)
            m += (1.0 - 0.9) * g
            v += (1.0 - 0.999) * g * g
            values -= 0.01 / (1.0 - 0.9) * m / (np.sqrt(v / (1.0 - 0.999)) + 1e-8)
        assert np.isfinite(arena.values).all()
        assert same_bits(arena.values, values)

    def test_in_place_step_is_bit_identical_to_the_formula(self, rng):
        # the update as written out with temporaries, over 50 steps of
        # fresh gradients on two parameters
        p = arena_params({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 4))})
        arena = p["a"].arena
        adam = _FlatAdam(arena, lr=0.01)
        values, m, v = arena.values.copy(), np.zeros(arena.size), np.zeros(arena.size)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 51):
            target = rng.normal(size=arena.size)
            adam_on(adam, lambda: loss_sum(sq_loss(p["a"], target[:12].reshape(3, 4)),
                                           sq_loss(p["b"], target[12:].reshape(1, 4))))
            g = 2.0 * (values - target)
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            step = 0.01 / (1.0 - beta1 ** t)
            values -= step * m / (np.sqrt(v / (1.0 - beta2 ** t)) + eps)
            assert np.array_equal(arena.values, values), t

    def test_twenty_steps_match_reference_on_quadratic(self):
        # f(w) = w^2, gradient 2w, from w0 = 1
        p = arena_params({"w": [[1.0]]})
        adam = _FlatAdam(p["w"].arena, lr=0.001)
        ref = ReferenceAdam(lr=0.001)
        w_ref = np.array([[1.0]])
        for _ in range(20):
            adam_on(adam, lambda: sq_loss(p["w"], np.zeros((1, 1))))
            w_ref = ref.step(w_ref, 2.0 * w_ref)
            assert abs(p["w"].item() - w_ref[0, 0]) < 1e-12
