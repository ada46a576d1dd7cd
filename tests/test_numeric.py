import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tape_reference as ref
from seqlab import numeric as nm
from seqlab.numeric import (
    NumericError,
    Parameter,
    RngState,
    Tensor,
    grad_check,
    sgd_step,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def lse(values):
    """`logsumexp` of a 1-d list, as a float."""
    return nm.logsumexp(Tensor(np.asarray(values, dtype=float)), axis=0).item()


class TestLogSumExp:
    def test_single_element_identity(self):
        assert lse([0.0]) == 0.0

    def test_two_equal(self):
        assert lse([5.0, 5.0]) == pytest.approx(5.0 + math.log(2.0), abs=1e-12)

    def test_three_values(self):
        # frozen from a high-precision summation oracle (mpmath, 50 digits)
        assert lse([1.0, 2.0, 3.0]) == pytest.approx(3.40760596444438, abs=1e-11)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_bounds(self, vs):
        out = lse(vs)
        assert out >= max(vs) - 1e-12
        assert out <= max(vs) + math.log(len(vs)) + 1e-12

    @given(st.lists(finite_floats, min_size=1, max_size=20), finite_floats)
    def test_shift_invariance(self, vs, c):
        shifted = lse([v + c for v in vs])
        assert shifted == pytest.approx(lse(vs) + c, abs=1e-12 * max(1.0, abs(c)))


class TestGradCheck:
    def test_quadratic(self):
        x = Parameter(np.array([3.0]), "x")

        def loss():
            return nm.tsum(nm.mul(x, x))

        assert grad_check(loss, [x]) < 1e-8

    def test_constant_loss(self):
        x = Parameter(np.array([1.0, -2.0]), "x")

        def loss():
            return nm.tsum(nm.mul(x, 0.0))

        assert grad_check(loss, [x]) == 0.0

    def test_nondeterministic_rejected(self):
        x = Parameter(np.array([1.0]), "x")
        state = {"calls": 0}

        def loss():
            state["calls"] += 1
            return nm.tsum(nm.mul(x, float(state["calls"])))

        with pytest.raises(NumericError):
            grad_check(loss, [x])

    def test_composite_ops(self):
        rng = RngState(0)
        w = Parameter(rng.uniform(-1, 1, (3, 4)), "w")
        b = Parameter(rng.uniform(-1, 1, (4,)), "b")
        x = Tensor(rng.uniform(-1, 1, (2, 3)))

        def loss():
            h = ref.tanh(nm.add(nm.matmul(x, w), b))
            s = ref.sigmoid(h)
            z = nm.logsumexp(s, axis=1)
            m = ref.tmax(h, axis=1)
            return nm.tsum(z) + nm.tsum(nm.mul(m, m)) + nm.tsum(ref.log(s))

        assert grad_check(loss, [w, b]) < 1e-6

    def test_gather_ops(self):
        rng = RngState(1)
        e = Parameter(rng.uniform(-1, 1, (5, 3)), "emb")
        idx = np.array([[0, 2], [4, 2]])

        def loss():
            rows = nm.gather(e, idx)
            picked = nm.gather_nd(e, np.array([1, 1]), np.array([0, 2]))
            return nm.tsum(nm.mul(rows, rows)) + nm.tsum(picked)

        assert grad_check(loss, [e]) < 1e-6


class TestSgdStep:
    def test_initial_lr(self):
        p = Parameter(np.array([1.0]), "p")
        p.grad[:] = 1.0
        lr, norm = sgd_step([p], 0.01, 0.05, 0)
        assert lr == 0.01 and norm == 1.0
        assert p.data[0] == pytest.approx(0.99)

    def test_decayed_lr_epoch_1(self):
        p = Parameter(np.array([0.0]), "p")
        lr, _ = sgd_step([p], 0.01, 0.05, 1)
        assert lr == pytest.approx(0.01 / 1.05, abs=1e-12)
        assert lr == pytest.approx(0.0095238, abs=1e-7)

    def test_zero_gradient_no_change(self):
        p = Parameter(np.array([1.5, -2.5]), "p")
        before = p.data.copy()
        sgd_step([p], 0.01, 0.05, 0)
        assert np.array_equal(p.data, before)

    def test_zero_lr_bit_identical(self):
        p = Parameter(np.array([1.0, 2.0]), "p")
        p.grad[:] = [3.0, -4.0]
        before = p.data.tobytes()
        sgd_step([p], 0.0, 0.05, 0)
        assert p.data.tobytes() == before

    def test_clipping(self):
        p = Parameter(np.zeros(1), "p")
        p.grad[:] = 10.0
        sgd_step([p], 1.0, 0.0, 0, clip_norm=5.0)
        assert p.data[0] == pytest.approx(-5.0)

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter(np.zeros(1), "culprit")
        p.grad[:] = np.nan
        with pytest.raises(NumericError, match="culprit"):
            sgd_step([p], 0.01, 0.05, 0)

    def test_gradients_zeroed_after_step(self):
        p = Parameter(np.zeros(2), "p")
        p.grad[:] = 1.0
        sgd_step([p], 0.01, 0.05, 0)
        assert np.array_equal(p.grad, np.zeros(2))


def sgd_step_allocating(params, base_lr, decay, epoch, clip_norm=5.0):
    """The update as it was written before it went in place: a separate
    finiteness pass and an `lr * g` temporary per parameter."""
    grads = []
    for p in params:
        if p.row_grads is not None:
            ids, g = p.grad_rows()
        else:
            ids, g = None, p.grad
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient in parameter %r" % p.name)
        grads.append((p, ids, g))
    lr = nm.learning_rate(base_lr, decay, epoch)
    total = None
    if clip_norm is not None:
        total = np.sqrt(sum(float((g * g).sum()) for _, _, g in grads))
        if total > clip_norm:
            scale = clip_norm / total
            for _, _, g in grads:
                g *= scale
    for p, ids, g in grads:
        if ids is None:
            p.data -= lr * g
            p.grad[...] = 0.0
        else:
            p.data[ids] -= lr * g
            p.row_grads.clear()
    return lr, total


class TestSgdInPlace:
    """The in-place update against the allocating one it replaced."""

    def params_with_grads(self, scale=1.0):
        rng = RngState(8)
        dense = [Parameter(rng.uniform(-1, 1, shape), name)
                 for shape, name in (((7, 5), "w"), ((5,), "b"), ((), "gamma"))]
        for p in dense:
            p.grad[...] = scale * rng.uniform(-1, 1, p.shape)
        table = Parameter(rng.uniform(-1, 1, (30, 4)), "emb", row_sparse=True)
        ids = np.array([[3, 17, 3], [9, 17, 0]])
        w = Tensor(scale * rng.uniform(-1, 1, ids.shape + (4,)))
        nm.tsum(nm.mul(nm.gather(table, ids), w)).backward()
        return dense + [table]

    @pytest.mark.parametrize("clip_norm", [None, 5.0, 0.1])
    def test_bit_identical_to_allocating_update(self, clip_norm):
        new, old = self.params_with_grads(), self.params_with_grads()
        table_before = new[-1].data.copy()
        touched = np.zeros(len(table_before), dtype=bool)
        touched[new[-1].grad_rows()[0]] = True
        lr_norm = sgd_step(new, 0.5, 0.05, 2, clip_norm=clip_norm)
        assert lr_norm == sgd_step_allocating(old, 0.5, 0.05, 2, clip_norm=clip_norm)
        for a, b in zip(new, old):
            assert a.data.tobytes() == b.data.tobytes()
        assert new[-1].data[~touched].tobytes() == table_before[~touched].tobytes()
        assert not np.array_equal(new[-1].data[touched], table_before[touched])
        for p in new[:-1]:
            assert not p.grad.any()
        assert new[-1].row_grads == []

    @pytest.mark.parametrize("clip_norm", [None, 5.0])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_names_parameter_before_any_update(self, clip_norm, bad):
        params = self.params_with_grads()
        params[1].grad[2] = bad
        before = [p.data.copy() for p in params]
        with pytest.raises(NumericError, match="'b'"):
            sgd_step(params, 0.5, 0.0, 0, clip_norm=clip_norm)
        for p, data in zip(params, before):
            assert p.data.tobytes() == data.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_of_finite_gradients_is_not_an_error(self):
        new, old = self.params_with_grads(1e200), self.params_with_grads(1e200)
        sgd_step(new, 0.5, 0.0, 0, clip_norm=5.0)
        sgd_step_allocating(old, 0.5, 0.0, 0, clip_norm=5.0)
        for a, b in zip(new, old):
            assert a.data.tobytes() == b.data.tobytes()


class TestRowSparse:
    """Embedding tables keep (ids, rows) gradients; every row must match the
    dense scatter-add bit for bit."""

    V, D = 40, 6

    def tables(self, seed=0):
        data = RngState(seed).uniform(-1, 1, (self.V, self.D))
        return Parameter(data.copy(), "emb", row_sparse=True), Parameter(data.copy(), "emb")

    def weights(self, shape, seed):
        return Tensor(RngState(seed).uniform(-1, 1, shape + (self.D,)))

    def test_gather_repeated_ids(self):
        table, _ = self.tables()
        ids = np.array([[3, 7, 3], [7, 3, 0]])
        w = self.weights(ids.shape, 1)
        nm.tsum(nm.mul(nm.gather(table, ids), w)).backward()
        ref = np.zeros((self.V, self.D))
        np.add.at(ref, ids.reshape(-1), w.data.reshape(-1, self.D))
        assert table.grad is None
        assert [r[0].tolist() for r in table.row_grads] == [[0, 3, 7]]
        assert table.dense_grad().tobytes() == ref.tobytes()

    def loss_two_gathers(self, table):
        ids_a, ids_b = np.array([[1, 5, 1, 9]]), np.array([[5, 1], [1, 2]])
        a = nm.gather(table, ids_a)
        b = nm.gather(table, ids_b)
        return (nm.tsum(nm.mul(a, self.weights(ids_a.shape, 2)))
                + nm.tsum(nm.mul(nm.mul(b, b), self.weights(ids_b.shape, 3))))

    def loss_mixed(self, table):
        """gather, gather_nd and a slice of one table."""
        ids = np.array([4, 8, 4, 4])
        picked = nm.gather_nd(table, np.array([8, 4, 8]), np.array([0, 5, 0]))
        sliced = table[3:9]
        return (nm.tsum(nm.mul(nm.gather(table, ids), self.weights(ids.shape, 4)))
                + nm.tsum(nm.mul(picked, picked)) + nm.tsum(nm.mul(sliced, sliced)))

    @pytest.mark.parametrize("loss", ["loss_two_gathers", "loss_mixed"])
    def test_matches_dense_scatter(self, loss):
        sparse, dense = self.tables()
        getattr(self, loss)(sparse).backward()
        getattr(self, loss)(dense).backward()
        assert sparse.dense_grad().tobytes() == dense.grad.tobytes()

    def step_both(self, clip_norm, lr=0.5):
        sparse, dense = self.tables()
        for table in (sparse, dense):
            self.loss_two_gathers(table).backward()
        before = sparse.data.copy()
        touched = np.zeros(self.V, dtype=bool)
        touched[sparse.grad_rows()[0]] = True
        norm = np.sqrt((dense.grad * dense.grad).sum())
        for table in (sparse, dense):
            sgd_step([table], lr, 0.0, 0, clip_norm=clip_norm)
        assert sparse.data[~touched].tobytes() == before[~touched].tobytes()
        assert not np.array_equal(sparse.data[touched], before[touched])
        return sparse, dense, norm

    def test_sgd_step_unclipped_bit_identical(self):
        sparse, dense, _ = self.step_both(None)
        assert sparse.data.tobytes() == dense.data.tobytes()

    def test_sgd_step_clipped_within_rounding(self):
        sparse, dense, norm = self.step_both(0.1)
        assert norm > 0.1
        assert np.allclose(sparse.data, dense.data, rtol=1e-15, atol=0)

    def test_nonfinite_row_names_parameter(self):
        table, _ = self.tables()
        w = self.weights((2,), 5)
        w.data[1, 0] = np.nan
        nm.tsum(nm.mul(nm.gather(table, np.array([2, 6])), w)).backward()
        with pytest.raises(NumericError, match="emb"):
            sgd_step([table], 0.01, 0.0, 0)

    def test_rows_cleared_by_step_and_zero_grad(self):
        table, _ = self.tables()
        self.loss_two_gathers(table).backward()
        assert table.row_grads
        sgd_step([table], 0.01, 0.0, 0)
        assert table.row_grads == []
        self.loss_mixed(table).backward()
        table.zero_grad()
        assert table.row_grads == []
        assert not table.dense_grad().any()

    def test_step_memory_independent_of_table_size(self):
        table = Parameter(np.zeros((200_000, 50)), "big", row_sparse=True)
        ids = np.arange(0, 200_000, 997)[:128].reshape(8, 16)
        w = Tensor(RngState(6).uniform(-1, 1, ids.shape + (50,)))
        tracemalloc.start()
        try:
            nm.tsum(nm.mul(nm.gather(table, ids), w)).backward()
            sgd_step([table], 0.1, 0.0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes / 10
        assert np.count_nonzero(table.data.any(axis=1)) == ids.size

    # values whose sum depends on the order and on the start from +0.0
    EDGES = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300,
                      1e-300, -1e-300, 1.0, -1.0, 2.0 ** -52, -(2.0 ** -52)])
    VALUES = (EDGES + np.array([[0], [1], [-1], [2], [-2]]) * 2.0 ** -52).reshape(-1)

    @given(st.integers(1, 40), st.lists(st.integers(0, 12), min_size=1, max_size=3),
           st.integers(0, 2 ** 32 - 1))
    def test_coalesce_sums_from_zero_in_order(self, d, sizes, seed):
        rng = np.random.default_rng(seed)
        pairs = []
        for n in sizes:
            rows = np.where(rng.random((n, d)) < 0.3, rng.uniform(-1e3, 1e3, (n, d)),
                            self.VALUES[rng.integers(0, self.VALUES.size, (n, d))])
            pairs.append((rng.integers(0, 6, n), rows))
        every = np.concatenate([i for i, _ in pairs])
        expected = np.zeros((np.unique(every).size, d))
        with np.errstate(invalid="ignore"):  # inf + -inf
            ids, rows = nm._coalesce(pairs, (6, d))
            np.add.at(expected, np.searchsorted(np.unique(every), every),
                      np.concatenate([r for _, r in pairs]))
        assert ids.tolist() == np.unique(every).tolist()
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(rows), nan)
        assert rows[~nan].tobytes() == expected[~nan].tobytes()


class TestNoGrad:
    def taped(self):
        return nm.add(Parameter(np.ones(2), "p"), 1.0)._parents != ()

    def test_nests_and_restores(self):
        assert self.taped()
        with nm.no_grad():
            assert not self.taped()
            with nm.no_grad():
                assert not self.taped()
            assert not self.taped()
        assert self.taped()

    def test_restores_when_body_raises(self):
        with pytest.raises(KeyError):
            with nm.no_grad():
                raise KeyError("boom")
        assert self.taped()

    def lstm(self, seed=0, B=3, T=40, d=5, H=16):
        rng = RngState(seed)
        x = Tensor(rng.uniform(-1, 1, (B, T, d)))
        fwd, bwd = ([Parameter(rng.uniform(-0.5, 0.5, shape), side + name)
                     for shape, name in (((d, 4 * H), "wx"), ((H, 4 * H), "wh"), ((4 * H,), "b"))]
                    for side in ("fwd.", "bwd."))
        return x, fwd, bwd

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_direction_same_output_no_tape(self, reverse):
        """Each direction's half of `blstm`'s output, bitwise the same with
        no tape; the two cases together cover the whole output."""
        x, fwd, bwd = self.lstm()
        H = fwd[1].shape[0]
        half = slice(H, None) if reverse else slice(None, H)
        taped = nm.blstm(x, fwd, bwd)
        for p in fwd + bwd:
            p.grad[...] = 0.25
        with nm.no_grad():
            free = nm.blstm(x, fwd, bwd)
        assert free.data[:, :, half].tobytes() == taped.data[:, :, half].tobytes()
        assert free._backward is None and free._parents == () and not free.requires_grad
        nm.tsum(nm.mul(free, free)).backward()
        assert all((p.grad == 0.25).all() for p in fwd + bwd)

    def test_blstm_keeps_no_gate_cache(self, monkeypatch):
        # both directions on the caller, as `Model.decode` runs them
        monkeypatch.setattr(nm, "_worker", False)
        x, fwd, bwd = self.lstm(B=8, T=200, H=32)

        def peak(fn):
            tracemalloc.start()
            try:
                return fn().data.nbytes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        out_bytes, with_tape = peak(lambda: nm.blstm(x, fwd, bwd))
        with nm.no_grad():
            _, without = peak(lambda: nm.blstm(x, fwd, bwd))
        # the gate cache holds several (B, H) arrays per step: at its peak the
        # taped call holds over five times the output's size more
        assert without + 4 * out_bytes < with_tape


class TestRngState:
    def test_reproducible(self):
        a = RngState(42)
        b = RngState(42)
        assert np.array_equal(a.random(10), b.random(10))

    def test_children_independent_of_sibling_use(self):
        a = RngState(7)
        b = RngState(7)
        a.child("x").random(100)
        assert np.array_equal(a.child("y").random(5), b.child("y").random(5))

    def test_algorithm_identifier(self):
        assert RngState(0).algorithm == "pcg64"
