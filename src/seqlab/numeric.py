"""Minimal differentiable numeric core.

Dense float64 tensors with reverse-mode automatic differentiation (a tape of
backward closures, micrograd-style but over numpy arrays), a finite-difference
gradient checker, and the SGD update rule used by the trainers.
"""

import contextlib
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "make_node",
    "no_grad",
    "RngState",
    "NumericError",
    "grad_check",
    "sgd_step",
    "add",
    "mul",
    "matmul",
    "concat",
    "stack",
    "exp",
    "tsum",
    "logsumexp",
    "lstm_direction",
    "learning_rate",
    "gather",
    "gather_nd",
    "dropout",
    "glorot_uniform",
    "glorot_parameter",
    "init_parameter",
    "param_rng",
    "run_pair",
]


class NumericError(ValueError):
    pass


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after a broadcasted op."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    row_grads = None  # pending (ids, rows) pairs of a row-sparse Parameter

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return self.data.item()

    def zero_grad(self):
        if self.row_grads is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.row_grads.clear()

    def accumulate(self, grad):
        if self.row_grads is not None:
            self.accumulate_rows(np.arange(len(self.data)), grad)
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def accumulate_rows(self, ids, rows):
        """Add `rows[k]` into row `ids[k]` of the gradient, in order of k."""
        if self.row_grads is not None:
            self.row_grads.append(_coalesce([(ids, rows)], self.shape))
            return
        full = np.zeros_like(self.data)
        np.add.at(full, ids, rows)
        self.accumulate(full)

    def grad_rows(self):
        """A row-sparse gradient as one (unique ids, summed rows) pair."""
        if len(self.row_grads) != 1:
            self.row_grads[:] = [_coalesce(self.row_grads, self.shape)]
        return self.row_grads[0]

    def dense_grad(self):
        """The gradient as a full array, built on demand for a row-sparse
        Parameter (for `grad_check` and tests; training never needs it)."""
        if self.row_grads is None:
            return self.grad
        full = np.zeros_like(self.data)
        ids, rows = self.grad_rows()
        full[ids] = rows
        return full

    def backward(self):
        if self.data.size != 1:
            raise NumericError("backward() requires a scalar loss")
        topo = []
        visited = set()
        stack_ = [self]
        while stack_:
            node = stack_[-1]
            if id(node) in visited:
                stack_.pop()
                continue
            pending = [p for p in node._parents if id(p) not in visited]
            if pending:
                stack_.extend(pending)
            else:
                visited.add(id(node))
                topo.append(stack_.pop())
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return _getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s)" % (self.shape, self.requires_grad)


class Parameter(Tensor):
    """Named trainable tensor.

    A dense parameter always holds a gradient buffer in `grad`. A row-sparse
    one (`row_sparse=True`, an embedding table) never holds a table-sized
    gradient: each contribution is kept in `row_grads` as (unique row ids,
    summed rows), `sgd_step` checks, norms and updates those rows only, and
    `dense_grad()` builds the full array for readers that want one.
    """

    __slots__ = ("name", "row_grads")

    def __init__(self, data, name, row_sparse=False):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.row_grads = [] if row_sparse else None
        if not row_sparse:
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return "Parameter(%r, shape=%s)" % (self.name, self.shape)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _coalesce(pairs, shape):
    """(ids, rows) pairs -> (sorted unique ids, summed rows).

    Every row is summed from zero in the order the pairs and their rows come,
    which is the order a dense `np.add.at` scatter of the same pairs adds
    them in, so both give bit-identical rows. `np.bincount` sums each bin
    that way, and faster than `np.add.at` into the unique rows.
    """
    if not pairs:
        return np.zeros(0, dtype=np.intp), np.zeros((0,) + shape[1:])
    if len(pairs) == 1:  # every gather backward: the rows as they are
        ids, values = pairs[0]
    else:
        ids = np.concatenate([i for i, _ in pairs])
        values = np.concatenate([r for _, r in pairs])
    ids, inverse = np.unique(ids, return_inverse=True)
    width = int(np.prod(shape[1:]))
    # element e of input row k goes to bin inverse[k] * width + e
    inverse *= width
    bins = np.add.outer(inverse, np.arange(width)).reshape(-1)
    rows = np.bincount(bins, values.reshape(-1), minlength=ids.size * width)
    return ids, rows.reshape((ids.size,) + shape[1:])


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: every op returns a plain leaf and
    `lstm_direction` keeps no gate cache. Values are bitwise those of the
    same ops with the tape on. Nests; the previous mode comes back on exit,
    also when the block raises. The mode is process-wide, not per thread."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def make_node(data, parents, backward):
    """Tensor holding `data`; when a parent needs gradients (and `no_grad` is
    off) it joins the tape, and `backward(grad)` adds its parents' gradients."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- primitive operations ---------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return make_node(a.data + b.data, (a, b), backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.shape))

    return make_node(a.data * b.data, (a, b), backward)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return make_node(a.data @ b.data, (a, b), backward)


def exp(a):
    a = _as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        a.accumulate(g * out_data)

    return make_node(out_data, (a,), backward)


def tsum(a, axis=None, keepdims=False):
    a = _as_tensor(a)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.shape).copy())

    return make_node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def logsumexp(a, axis):
    a = _as_tensor(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    out_data = np.squeeze(np.log(np.sum(np.exp(a.data - m), axis=axis, keepdims=True)) + m, axis=axis)

    def backward(g):
        soft = np.exp(a.data - np.expand_dims(out_data, axis))
        a.accumulate(np.expand_dims(g, axis) * soft)

    return make_node(out_data, (a,), backward)


def reshape(a, *shape):
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])

    def backward(g):
        a.accumulate(g.reshape(a.shape))

    return make_node(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t.accumulate(piece)

    return make_node(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def stack(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(np.take(g, i, axis=axis))

    return make_node(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def _getitem(a, key):
    """Basic (slice/int) indexing; backward adds into the matching view of
    the input's gradient."""

    def backward(g):
        if a.row_grads is not None:
            full = np.zeros_like(a.data)
            full[key] = g
            a.accumulate(full)
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return make_node(a.data[key], (a,), backward)


def gather(a, indices):
    """Row lookup along axis 0 (embedding-table style). The backward hands
    the rows' gradients to `accumulate_rows`: a row-sparse table records
    them, any other tensor scatter-adds them into a dense gradient."""
    a = _as_tensor(a)
    indices = np.asarray(indices)

    def backward(g):
        a.accumulate_rows(indices.reshape(-1), g.reshape(-1, *a.shape[1:]))

    return make_node(a.data[indices], (a,), backward)


def gather_nd(a, *index_arrays):
    """Fancy multi-axis integer indexing with scatter-add backward."""
    a = _as_tensor(a)
    idx = tuple(np.asarray(ix) for ix in index_arrays)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a.accumulate(full)

    return make_node(a.data[idx], (a,), backward)


def lstm_direction(x, wx, wh, b, reverse=False):
    """One LSTM direction over (B, T, d) inputs as a single tape node.

    `wx` (d, 4H), `wh` (H, 4H) and `b` (4H,) hold the gates in the order
    input, forget, cell, output; the state starts at zero, and `reverse`
    runs the recurrence from the last timestep to the first. Returns the
    (B, T, H) hidden states. The forward caches every step's gate
    activations (none under `no_grad`); the backward is hand-written BPTT
    that performs the same floating-point operations in the same order as
    the per-step graph of add/matmul/sigmoid/tanh/mul nodes it replaces
    (kept in `tests/tape_reference.py`), so both give bit-identical
    gradients.
    """
    x, wx, wh, b = (_as_tensor(t) for t in (x, wx, wh, b))
    B, T, d = x.shape
    H = wh.shape[0]
    x2d = x.data.reshape(B * T, d)
    xw = (x2d @ wx.data + b.data).reshape(B, T, 4 * H)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.empty((B, T, H))
    cache = [] if _grad_enabled else None
    for t in steps:
        gates = xw[:, t, :] + h @ wh.data
        act = 1.0 / (1.0 + np.exp(-gates))
        i, f, o = act[:, :H], act[:, H : 2 * H], act[:, 3 * H :]
        g = np.tanh(gates[:, 2 * H : 3 * H])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        out[:, t, :] = h
        if cache is not None:
            cache.append((t, h_prev, c_prev, i, f, g, o, tc))

    def backward(grad):
        dxw = np.empty((B, T, 4 * H))
        dgates = np.empty((B, 4 * H))
        dh_next = dc_next = 0.0
        for t, h_prev, c_prev, i, f, g, o, tc in reversed(cache):
            dh = grad[:, t, :] + dh_next
            dc = (dh * o) * (1.0 - tc * tc) + dc_next
            dgates[:, :H] = ((dc * g) * i) * (1.0 - i)
            dgates[:, H : 2 * H] = ((dc * c_prev) * f) * (1.0 - f)
            dgates[:, 2 * H : 3 * H] = (dc * i) * (1.0 - g * g)
            dgates[:, 3 * H :] = ((dh * tc) * o) * (1.0 - o)
            dxw[:, t, :] = dgates
            dc_next = dc * f
            dh_next = dgates @ wh.data.T
            if wh.requires_grad:
                wh.accumulate(h_prev.T @ dgates)
        dxw2d = dxw.reshape(B * T, 4 * H)
        if x.requires_grad:
            x.accumulate((dxw2d @ wx.data.T).reshape(B, T, d))
        if wx.requires_grad:
            wx.accumulate(x2d.T @ dxw2d)
        if b.requires_grad:
            b.accumulate(dxw2d.sum(axis=0))

    return make_node(out, (x, wx, wh, b), backward)


def dropout(a, rate, rng):
    """Inverted dropout with an independent mask per element."""
    if rate <= 0.0:
        return a
    a = _as_tensor(a)
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return mul(a, Tensor(mask))


# -- stand-alone numerics ---------------------------------------------------


def grad_check(loss_fn, params, eps=1e-5):
    """Compare analytic gradients of `loss_fn` against central differences.

    Returns the maximum relative error max(|a-n| / max(|a|, |n|, 1e-8)) over
    every scalar entry of every parameter. `loss_fn` takes no arguments,
    reads the current parameter values, and returns a scalar Tensor. The
    perturbed passes only read the loss, so they run under `no_grad`.
    """
    if eps <= 0:
        raise NumericError("eps must be positive")
    first = float(loss_fn().data)
    second = float(loss_fn().data)
    if first != second:
        raise NumericError(
            "loss_fn is not deterministic (%r != %r)" % (first, second)
        )
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = [p.dense_grad().copy() for p in params]
    max_rel = 0.0
    for p, a_grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                f_plus = float(loss_fn().data)
                flat[i] = orig - eps
                f_minus = float(loss_fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(a_flat[i] - numeric) / max(abs(a_flat[i]), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    for p in params:
        p.zero_grad()
    return max_rel


def learning_rate(base_lr, decay, epoch):
    """lr_e = base_lr / (1 + decay * e)."""
    return base_lr / (1.0 + decay * epoch)


def sgd_step(params, base_lr, decay, epoch, clip_norm=5.0):
    """SGD update with 1/(1 + decay*epoch) learning-rate decay.

    Gradients are global-norm clipped to `clip_norm` (None disables), the
    update is applied in place, and every gradient is cleared. A gradient
    with a non-finite entry raises before any update, naming its parameter;
    with clipping on, a finite sum of squares (computed for the norm anyway)
    already shows every entry is finite. A row-sparse parameter is checked,
    normed and updated on the rows its gradient touched only; its other rows
    have zero gradient and stay bitwise unchanged.

    Returns (learning rate, global gradient norm before clipping); the norm
    is None when clipping is off, which computes none.
    """
    grads = []
    squares = []
    for p in params:
        if p.row_grads is not None:
            ids, g = p.grad_rows()
        else:
            if p.grad is None:
                p.zero_grad()
            ids, g = None, p.grad
        if clip_norm is not None:
            squares.append(float((g * g).sum()))
        if (clip_norm is None or not np.isfinite(squares[-1])) and not np.isfinite(g).all():
            raise NumericError("non-finite gradient in parameter %r" % p.name)
        grads.append((p, ids, g))
    lr = learning_rate(base_lr, decay, epoch)
    total = None
    if clip_norm is not None:
        total = float(np.sqrt(sum(squares)))
        if total > clip_norm:
            scale = clip_norm / total
            for _, _, g in grads:
                g *= scale
    for p, ids, g in grads:
        g *= lr
        if ids is None:
            p.data -= g
            g.fill(0.0)
        else:
            p.data[ids] -= g
            p.row_grads.clear()
    return lr, total


# -- two cores ------------------------------------------------------------


def _new_pair_pool():
    global _pair_pool
    _pair_pool = ThreadPoolExecutor(1, "seqlab-pair")  # its thread starts on first use


_new_pair_pool()
if hasattr(os, "register_at_fork"):  # a forked child has no copy of the thread
    os.register_at_fork(after_in_child=_new_pair_pool)


def run_pair(first, second):
    """Call `first()` and `second()` at the same time; returns both results.

    `first` runs on one worker thread, started by the first call, and
    `second` on the calling thread. `first` runs to its end, also when
    `second` raises, and an exception of `first` is raised here after
    `second` has finished. The two must write no memory in common, and
    `first` must not call `run_pair` (it would wait for its own thread);
    then every result is bitwise that of a serial run. Only large numpy
    calls, which release the interpreter lock, overlap; on one CPU the two
    halves take turns, about as fast as one thread running both.
    """
    worker = _pair_pool.submit(first)
    try:
        mine = second()
    finally:
        theirs = worker.result()
    return theirs, mine


# -- random state -----------------------------------------------------------


class RngState:
    """Seeded PCG64 stream; identical seed + call sequence => identical draws."""

    algorithm = "pcg64"

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag):
        """Derive an independent stream keyed by `tag`."""
        digest = hashlib.sha256(("%d/%s" % (self.seed, tag)).encode("utf-8")).digest()
        return RngState(int.from_bytes(digest[:8], "little"))

    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low, high, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def shuffle(self, seq):
        self._gen.shuffle(seq)

    def bernoulli(self, p):
        return self._gen.random() < p


def param_rng(seed, name):
    """Initialization stream for one named parameter.

    Keying on the name makes every parameter's initial value independent of
    construction order and of which other parameters exist in the model.
    """
    return RngState(seed).child("init/" + name)


def glorot_uniform(shape, fan_in, fan_out, rng):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


def init_parameter(name, shape, make, saved=None, row_sparse=False):
    """Parameter `name` of `shape`, holding `make(shape)` or, when `saved`
    (a checkpoint's arrays by name) has it, that array as is: a loaded model
    draws no value it would then overwrite."""
    data = saved.get(name) if saved else None
    if data is None:
        data = make(shape)
    elif data.shape != tuple(shape):
        raise NumericError("parameter %r: saved shape %s, the model needs %s"
                           % (name, list(data.shape), list(shape)))
    return Parameter(data, name, row_sparse)


def glorot_parameter(name, shape, seed, saved=None, row_sparse=False):
    """`init_parameter` drawing glorot-uniform from `param_rng(seed, name)`;
    fan-in is the product of all axes but the last, fan-out the last."""
    def draw(shape):
        return glorot_uniform(shape, int(np.prod(shape[:-1])), shape[-1],
                              param_rng(seed, name))

    return init_parameter(name, shape, draw, saved, row_sparse)
