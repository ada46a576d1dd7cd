"""Minimal differentiable numeric core.

Dense float64 tensors with reverse-mode automatic differentiation (a tape of
backward closures, micrograd-style but over numpy arrays), a finite-difference
gradient checker, and the SGD update rule used by the trainers.
"""

import atexit
import contextlib
import hashlib
import itertools
import mmap
import os
import sys
import threading
import time
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
    "exp",
    "tsum",
    "logsumexp",
    "blstm",
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
    `blstm` keeps no gate cache. Values are bitwise those of the
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


def _lstm_run(x2d, wx, wh, b, B, T, reverse, keep):
    """One LSTM direction over the (B*T, d) rows `x2d` of (B, T, d) inputs:
    the (B, T, H) hidden states and, when `keep`, the gate cache its BPTT
    reads (else None)."""
    H = wh.shape[0]
    xw = (x2d @ wx + b).reshape(B, T, 4 * H)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    out = np.empty((B, T, H))
    cache = [] if keep else None
    for t in steps:
        gates = xw[:, t, :] + h @ wh
        act = 1.0 / (1.0 + np.exp(-gates))
        i, f, o = act[:, :H], act[:, H : 2 * H], act[:, 3 * H :]
        g = np.tanh(gates[:, 2 * H : 3 * H])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        out[:, t, :] = h
        if keep:
            cache.append((t, h_prev, c_prev, i, f, g, o, tc))
    return out, cache


def _lstm_grads(grad, cache, x2d, wx, wh, add_wh, need):
    """BPTT of one direction from its (B, T, H) output gradient. `add_wh`
    (or None) takes each step's W_h gradient in turn; returns the gradients
    of the (B*T, d) input rows, W_x and b, each None where `need` is false."""
    B, T, H = grad.shape
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
        dh_next = dgates @ wh.T
        if add_wh is not None:
            add_wh(h_prev.T @ dgates)
    dxw2d = dxw.reshape(B * T, 4 * H)
    need_x, need_wx, need_b = need
    return (dxw2d @ wx.T if need_x else None, x2d.T @ dxw2d if need_wx else None,
            dxw2d.sum(axis=0) if need_b else None)


def _add_grads(x, wx, b, grads):
    """Accumulate `_lstm_grads`'s (dx rows, dW_x, db) into x, W_x and b."""
    for t, g in zip((x, wx, b), grads):
        if g is not None:
            t.accumulate(g.reshape(x.shape) if t is x else g)


def blstm(x, fwd, bwd):
    """Both directions of a bi-directional LSTM over (B, T, d) inputs as one
    tape node. `fwd` and `bwd` are (W_x, W_h, b) triples of distinct
    tensors: `W_x` (d, 4H), `W_h` (H, 4H) and `b` (4H,) hold the gates in the
    order input, forget, cell, output, and each state starts at zero; `bwd`
    runs from the last timestep to the first. Returns their (B, T, 2H) hidden
    states side by side. The backward is hand-written BPTT: values and
    gradients are bitwise those of the per-step graph of both directions
    (add/matmul/sigmoid/tanh/mul nodes, kept in `tests/tape_reference.py`),
    concatenated. x takes the forward direction's gradient first, and the
    reverse W_h gradient continues from the value it had before the backward.

    With the tape on, the reverse direction runs in the worker process (see
    `_Worker`) while the caller runs the forward one, in the forward and in
    the backward pass alike; the worker holds its gate cache. Under `no_grad`,
    with nothing to differentiate, before the first backward through a
    `blstm` node has started the worker, or where none can start, both run
    on the caller. The parameters must not change between forward and
    backward.
    """
    x = _as_tensor(x)
    fwd, bwd = (tuple(_as_tensor(t) for t in triple) for triple in (fwd, bwd))
    (wx, wh, b), (wx_r, wh_r, b_r) = fwd, bwd
    taped = _grad_enabled and any(t.requires_grad for t in (x,) + fwd + bwd)
    B, T, d = x.shape
    x2d = x.data.reshape(B * T, d)
    apart = {id(t) for t in fwd}.isdisjoint(id(t) for t in bwd)
    worker = _blstm_worker() if taped and apart else None
    if worker is None:
        out_r, cache_r = _lstm_run(x2d, wx_r.data, wh_r.data, b_r.data, B, T, True, taped)
        out_f, cache_f = _lstm_run(x2d, wx.data, wh.data, b.data, B, T, False, taped)
        out = np.concatenate([out_f, out_r], axis=2)
    else:
        handle = _Handle(worker, (B, T, d, wh_r.shape[0]))
        out, cache_f = worker.run_pair(
            "forward", (handle.id, B, T), (x2d, wx_r.data, wh_r.data, b_r.data),
            [(B, T, wh_r.shape[0])],
            lambda: _lstm_run(x2d, wx.data, wh.data, b.data, B, T, False, True),
            lambda mine, out_r: (np.concatenate([mine[0], out_r], axis=2), mine[1]))

    def backward(grad):
        H = wh.shape[0]
        g_f, g_r = grad[:, :, :H], grad[:, :, H:]
        need_f = x.requires_grad, wx.requires_grad, b.requires_grad
        need_r = x.requires_grad, wx_r.requires_grad, b_r.requires_grad
        add_f = wh.accumulate if wh.requires_grad else None
        if worker is None:
            _add_grads(x, wx, b, _lstm_grads(g_f, cache_f, x2d, wx.data, wh.data, add_f, need_f))
            add_r = wh_r.accumulate if wh_r.requires_grad else None
            _add_grads(x, wx_r, b_r, _lstm_grads(g_r, cache_r, x2d, wx_r.data, wh_r.data, add_r,
                                                 need_r))
            if apart:
                _blstm_worker(start=True)  # for the nodes to come
            return
        prior = wh_r.grad if wh_r.grad is not None else np.zeros(wh_r.shape)

        def take(mine, dx_r, dwx_r, db_r, dwh_r):
            _add_grads(x, wx, b, mine)
            _add_grads(x, wx_r, b_r, [g if need else None
                                      for g, need in zip((dx_r, dwx_r, db_r), need_r)])
            if wh_r.requires_grad:
                if wh_r.grad is None:
                    wh_r.grad = dwh_r.copy()
                else:
                    wh_r.grad[...] = dwh_r

        handle.backward(g_r, prior, need_r + (wh_r.requires_grad,), take,
                        lambda: _lstm_grads(g_f, cache_f, x2d, wx.data, wh.data, add_f, need_f))

    return make_node(out, (x,) + fwd + bwd, backward)


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
    halves take turns, about as fast as one thread running both. The BLSTM
    worker process takes the same call (`_Worker.run_pair`), with its
    command in place of `first`.
    """
    worker = _pair_pool.submit(first)
    try:
        mine = second()
    finally:
        theirs = worker.result()
    return theirs, mine


# -- the BLSTM worker process ---------------------------------------------

# The worker is a fresh interpreter (a fork of a large trainer would carry
# its pages) that runs the reverse direction of every taped `blstm` node.
# Commands and replies are pickled over a pipe each way, and arrays go
# through a shared memfd arena. The worker ignores SIGINT, never writes to
# stdout or stderr, and exits when the command pipe reaches EOF (the caller
# closes it at exit) or when the caller is gone.
_WORKER_CODE = "import sys; sys.path[:] = %r; from seqlab.numeric import _blstm_serve; " \
               "_blstm_serve(*%r)"

# glibc gives a freed block above its (dynamic) mmap threshold back to the
# system, so the worker, which frees a whole gate cache per backward, would
# fault the same pages in again on every forward; below 32 MiB it keeps them
_WORKER_MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(1 << 25), "MALLOC_TRIM_THRESHOLD_": str(1 << 25)}
_SPIN_S = 0.02  # how long a reader polls before it sleeps


class _Channel:
    """One direction of the link to the worker: pickled messages over a
    pipe, and an eventfd that the reader waits on. A pipe write wakes its
    reader as a synchronous wakeup, which places the reader on the writer's
    CPU, where the caller goes on computing; an eventfd wakes it on an idle
    CPU. Where the process may run on two CPUs or more, the reader first
    polls for `_SPIN_S`, yielding its CPU between polls, and only then
    sleeps: on a VM, a CPU that idles for the few milliseconds between two
    commands runs slower for a while afterwards (on one CPU the polls only
    take time from the other side). While it sleeps, the reader checks
    every half second that the other side is `alive()`, else it raises
    EOFError."""

    def __init__(self, pipe_fd, event_fd, reading):
        from multiprocessing.connection import Connection

        self.conn = Connection(pipe_fd, readable=reading, writable=not reading)
        self.event = event_fd
        self.spin = _SPIN_S if len(os.sched_getaffinity(0)) > 1 else 0.0

    def send(self, message):
        os.eventfd_write(self.event, 1)
        self.conn.send(message)

    def recv(self, alive):
        import select

        poll = select.poll()
        poll.register(self.event, select.POLLIN)
        end = time.monotonic() + self.spin
        while not poll.poll(0):
            if time.monotonic() > end:
                while not poll.poll(500):
                    if not alive():
                        raise EOFError
                break
            os.sched_yield()
        os.eventfd_read(self.event)
        return self.conn.recv()

    def close(self):
        self.conn.close()
        os.close(self.event)


class _Arena:
    """A memfd that both processes map: the float64 inputs and outputs of
    one command at a time, at 64-byte offsets. Only the caller grows it."""

    def __init__(self, fd):
        self.fd, self.size, self.map = fd, 0, None

    def resize(self, size):
        if size != self.size:
            if os.fstat(self.fd).st_size < size:
                os.ftruncate(self.fd, size)
            self.map = mmap.mmap(self.fd, size)  # the old map goes with its last view
            self.size = size

    def view(self, slot):
        offset, shape = slot
        return np.ndarray(shape, np.float64, self.map, offset)


def _layout(shapes):
    """(offset, shape) slots for arrays of `shapes`, and the bytes they span."""
    slots, end = [], 0
    for shape in shapes:
        slots.append((end, tuple(shape)))
        end += -(-8 * int(np.prod(shape)) // 64) * 64
    return slots, end


def _worker_forward(caches, arena, handle, B, T, slots):
    x2d, wx, wh, b = (arena.view(slot).copy() for slot in slots[:4])
    out, cache = _lstm_run(x2d, wx, wh, b, B, T, True, True)
    arena.view(slots[4])[...] = out
    caches[handle] = cache, x2d, wx, wh


def _worker_backward(caches, arena, handle, need, slots):
    cache, x2d, wx, wh = caches.pop(handle)
    g_slot, prior_slot, dx_slot, dwx_slot, db_slot, dwh_slot = slots
    dwh = arena.view(prior_slot).copy()
    add = (lambda g: np.add(dwh, g, out=dwh)) if need[3] else None
    grads = _lstm_grads(arena.view(g_slot), cache, x2d, wx, wh, add, need[:3])
    for slot, g in zip((dx_slot, dwx_slot, db_slot, dwh_slot), grads + (dwh,)):
        arena.view(slot)[...] = g if g is not None else 0.0


_WORKER_OPS = {"forward": _worker_forward, "backward": _worker_backward,
               "count": lambda caches, arena, slots: arena.view(slots[0]).fill(len(caches))}


def _blstm_serve(parent, cmd_fd, cmd_event, reply_fd, reply_event, arena_fd):
    """The worker's loop: one reply per command, an exception in a command
    as a one-line error reply; returns at EOF on the command pipe, or when
    the caller, process `parent`, is gone (also if it died before the loop
    began)."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    commands = _Channel(cmd_fd, cmd_event, reading=True)
    replies = _Channel(reply_fd, reply_event, reading=False)
    arena = _Arena(arena_fd)
    caches = {}
    while True:
        try:
            op, free, size, args, slots = commands.recv(lambda: os.getppid() == parent)
        except EOFError:
            return
        for handle in free:
            caches.pop(handle, None)
        try:
            arena.resize(size)
            reply = True, _WORKER_OPS[op](caches, arena, *args, slots)
        except Exception as e:
            reply = False, " ".join(("%s: %s" % (type(e).__name__, e)).split())
        replies.send(reply)


class _Handle:
    """The caller's reference to one node's gate cache in the worker. A
    handle that dies before its backward goes on the worker's free list,
    which the next command carries (a finalizer never writes to the pipe)."""

    def __init__(self, worker, shape):
        self.worker, self.id, self.shape, self.live = worker, next(worker.handles), shape, True

    def backward(self, g_r, prior, need, take, second):
        """Run the reverse direction's backward in the worker and `second()`
        on the caller; `take` gets second's result and the gradients of the
        input rows, W_x, b and W_h (see `_Worker.run_pair`)."""
        if not self.live or self.worker.dead:
            raise NumericError("this BLSTM node's gate cache is gone: its backward ran "
                               "already, or the worker that held it exited")
        self.live = False
        B, T, d, H = self.shape
        return self.worker.run_pair("backward", (self.id, need), (g_r, prior),
                                    [(B * T, d), (d, 4 * H), (4 * H,), (H, 4 * H)], second, take)

    def __del__(self):
        if self.live:
            self.worker.free.append(self.id)


class _Worker:
    """The caller's end of the worker process. `run_pair` runs one command
    in it, one at a time; a worker error or a dead worker raises a one-line
    NumericError, and a dead worker is replaced at the next backward."""

    def __init__(self):
        import subprocess

        fds = []
        try:
            for _ in range(2):
                fds += os.pipe()
                fds.append(os.eventfd(0))
            fds.append(os.memfd_create("seqlab-blstm"))
            cmd_r, cmd_w, cmd_event, reply_r, reply_w, reply_event, arena = fds
            theirs = (cmd_r, cmd_event, reply_w, reply_event, arena)
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _WORKER_CODE % (sys.path, (os.getpid(),) + theirs)],
                pass_fds=theirs,
                env=dict(os.environ, **_WORKER_MALLOC),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        os.close(cmd_r)
        os.close(reply_w)
        self.commands = _Channel(cmd_w, cmd_event, reading=False)
        self.replies = _Channel(reply_r, reply_event, reading=True)
        self.arena = _Arena(arena)
        self.lock = threading.Lock()
        self.free = []
        self.handles = itertools.count()  # next() is atomic: callers may race
        self.dead = False

    def run_pair(self, op, args, inputs, outputs, second, take):
        """Send command `op` with `inputs` copied into the arena and call
        `second()` meanwhile; returns `take(second's result, *output arrays)`.
        The output arrays, of the shapes `outputs`, are views of the arena,
        valid inside `take` only. As in `numeric.run_pair`, the reply is read
        also when `second` raises, and a worker error is raised after
        `second` has finished."""
        with self.lock:
            slots, size = _layout([a.shape for a in inputs] + list(outputs))
            if size > self.arena.size:
                self.arena.resize(max(size, 2 * self.arena.size, 1 << 20))
            for a, slot in zip(inputs, slots):
                self.arena.view(slot)[...] = a
            n = len(self.free)  # a finalizer may append meanwhile
            free = self.free[:n]
            del self.free[:n]
            try:
                self.commands.send((op, free, self.arena.size, args, slots))
            except OSError:
                raise self._exited() from None
            try:
                mine = second()
            finally:
                try:
                    ok, value = self.replies.recv(lambda: self.proc.poll() is None)
                except (EOFError, OSError):
                    raise self._exited() from None
                except BaseException:
                    self.close(kill=True)  # interrupted with its reply unread
                    raise
                if not ok:
                    raise NumericError("BLSTM worker: " + value)
            return take(mine, *map(self.arena.view, slots[len(inputs):]))

    def _exited(self):
        """Reap a worker found dead; returns the error to raise."""
        self.close(kill=True)
        return NumericError("the BLSTM worker exited (exit code %s)" % self.proc.returncode)

    def close(self, kill=False):
        """Close the pipes and reap the worker, which sees EOF and exits."""
        import subprocess

        if self.dead:
            return
        self.commands.conn.close()
        os.eventfd_write(self.commands.event, 1)  # the worker wakes to EOF
        self.forget()
        if kill:
            self.proc.kill()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def forget(self):
        """Close this process's copies of the worker's pipes and arena (in a
        forked child, the worker is the parent's)."""
        self.dead = True
        self.commands.close()
        self.replies.close()
        os.close(self.arena.fd)


_worker = None   # the live worker; False where none can start


def _blstm_worker(start=False):
    """The live worker, or None. With `start`, one is started where none is
    live and the system can run one (memfd, eventfd and `subprocess`). The
    first backward through a BLSTM node starts it, so a process that only
    runs forward passes, taped or not, never does."""
    global _worker
    if start and (_worker is None or (_worker and _worker.dead)):
        _worker = False
        if hasattr(os, "memfd_create") and hasattr(os, "eventfd"):
            try:
                _worker = _Worker()
            except OSError:
                pass
    return _worker if _worker and not _worker.dead else None


def _stop_worker():
    global _worker
    worker, _worker = _worker, None
    if worker:
        worker.close()


def _forget_worker():
    global _worker
    worker, _worker = _worker, None
    if worker and not worker.dead:
        worker.forget()


atexit.register(_stop_worker)
if hasattr(os, "register_at_fork"):  # a forked child starts its own worker
    os.register_at_fork(after_in_child=_forget_worker)


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
