"""`numeric.run_pair` and the layers that use it: the wide CRF's
log-partition and the LM heads give bitwise the same values and gradients
with the worker thread on and with both halves forced onto the caller.
`numeric.blstm`, whose reverse direction runs in the worker process, gives
bitwise the values and gradients of the per-step graphs of both directions
(`tape_reference.blstm`)."""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import tape_reference
from seqlab import lm, numeric as nm
from seqlab.crf import STEP_BUFFER_ELEMS, CRFLayer, crf_log_z
from seqlab.encoders import BLSTM
from seqlab.mtl import ModelSpec, build_model
from seqlab.numeric import NumericError, Parameter, RngState, Tensor
from synthetic_data import FINE, make_corpus, make_vocab, tiny_spec_kwargs


def serial_pair(first, second):
    return first(), second()


@pytest.fixture(params=["worker", "serial"])
def pair_mode(request, monkeypatch):
    if request.param == "serial":
        monkeypatch.setattr(nm, "run_pair", serial_pair)
    return request.param


def weighted_sum_backward(out, seed):
    w = Tensor(RngState(seed).uniform(-1.5, 1.5, out.shape))
    nm.tsum(nm.mul(out, w)).backward()


# B * L * L above STEP_BUFFER_ELEMS: the row-at-a-time path, split in halves
CRF_SHAPES = [(3, 6, 160), (2, 5, 190), (5, 4, 120)]


def crf_run(fn, B, T, L):
    """log Z bytes, emission gradient and transition gradient."""
    assert B * L * L > STEP_BUFFER_ELEMS
    layer = CRFLayer(3, L, seed=L, prefix="crf")
    e = Tensor(RngState(B * T * L).uniform(-3, 3, (B, T, L)), requires_grad=True)
    log_z = fn(e, layer)
    weighted_sum_backward(log_z, 5)
    return log_z.data.tobytes(), e.grad.tobytes(), layer.transitions.grad.tobytes()


@pytest.mark.parametrize("B,T,L", CRF_SHAPES)
def test_crf_log_z_rows_bitwise_with_and_without_worker(B, T, L, monkeypatch):
    threaded = crf_run(crf_log_z, B, T, L)
    monkeypatch.setattr(nm, "run_pair", serial_pair)
    assert crf_run(crf_log_z, B, T, L) == threaded


@pytest.mark.parametrize("B,T,L", CRF_SHAPES)
def test_crf_log_z_rows_match_tape(B, T, L, pair_mode):
    assert crf_run(crf_log_z, B, T, L) == crf_run(tape_reference.crf_log_z, B, T, L)


def lm_run(B=3, T=7, V=2504, H=6):
    """Loss bytes and the gradients of both states and every head parameter."""
    rng = RngState(B * T + V)
    head = lm.LMHead(H, V, seed=V, prefix="lm")
    head.fwd_b.data[:] = rng.uniform(-1, 1, V)
    fwd = Tensor(rng.uniform(-1, 1, (B, T, H)), requires_grad=True)
    bwd = Tensor(rng.uniform(-1, 1, (B, T, H)), requires_grad=True)
    words = rng.integers(0, 9, (B, T))
    e_fwd, e_bwd = lm.lm_losses(fwd, bwd, words, head)
    nm.add(nm.mul(e_fwd, 0.3), nm.mul(e_bwd, -1.7)).backward()
    return [e_fwd.data.tobytes(), e_bwd.data.tobytes(), fwd.grad.tobytes(),
            bwd.grad.tobytes()] + [p.grad.tobytes() for p in head.parameters()]


def test_lm_losses_bitwise_with_and_without_worker(monkeypatch):
    threaded = lm_run()
    monkeypatch.setattr(nm, "run_pair", serial_pair)
    assert lm_run() == threaded


def test_lm_losses_frozen_states_keep_parameter_gradients(pair_mode):
    head = lm.LMHead(4, 11, seed=1, prefix="lm")
    states = Tensor(RngState(2).uniform(-1, 1, (2, 3, 4)))
    e_fwd, e_bwd = lm.lm_losses(states, states, np.ones((2, 3), dtype=int), head)
    nm.add(e_fwd, e_bwd).backward()
    assert states.grad is None
    assert all(p.grad.any() for p in head.parameters())


def test_worker_exception_arrives_after_callers_half():
    finished = []

    def first():
        raise KeyError("worker")

    def second():
        time.sleep(0.05)
        finished.append(time.perf_counter())
        return 1

    with pytest.raises(KeyError, match="worker"):
        nm.run_pair(first, second)
    assert len(finished) == 1


def test_caller_exception_waits_for_worker():
    finished = []

    def first():
        time.sleep(0.05)
        finished.append(True)

    def second():
        raise KeyError("caller")

    with pytest.raises(KeyError, match="caller"):
        nm.run_pair(first, second)
    assert finished == [True]


def test_first_runs_on_the_worker():
    first, second = nm.run_pair(threading.current_thread, threading.current_thread)
    assert second is threading.current_thread()
    assert first.name.startswith("seqlab-pair")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_starts_its_own_worker():
    nm.run_pair(lambda: None, lambda: None)
    pid = os.fork()
    if pid == 0:  # the child: a pool copied from the parent has no thread
        signal.alarm(20)
        code = 1
        try:
            code = 0 if nm.run_pair(lambda: 1, lambda: 2) == (1, 2) else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_concurrent_callers_share_one_worker(monkeypatch):
    """More callers than cores, with thread switches forced often: every
    caller's CRF, LM and BLSTM results stay those of the serial run, the
    BLSTM's with its reverse direction on the caller."""
    with monkeypatch.context() as serial:
        serial.setattr(nm, "run_pair", serial_pair)
        serial.setattr(nm, "_worker", False)
        want_crf = crf_run(crf_log_z, 3, 6, 160)
        want_lm = lm_run()
        want_blstm = blstm_run(nm.blstm, 4, 9, 6, 5)
    results = []

    def call():
        results.append((crf_run(crf_log_z, 3, 6, 160), lm_run(), blstm_run(nm.blstm, 4, 9, 6, 5)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert results == [(want_crf, want_lm, want_blstm)] * 3


# -- the BLSTM worker process ------------------------------------------------


def blstm_run(fn, B, T, d, H, x_grad=True):
    """Output bytes, x's gradient and the six parameter gradients, x and
    each parameter starting from a non-zero gradient (so that the order in
    which the two directions add into them shows)."""
    rng = RngState(B * T * d + H)
    fwd, bwd = ([Parameter(rng.uniform(-0.5, 0.5, shape), "%s.%s" % (side, name))
                 for shape, name in (((d, 4 * H), "W_x"), ((H, 4 * H), "W_h"), ((4 * H,), "b"))]
                for side in ("fwd", "bwd"))
    for p in fwd + bwd:
        p.grad[...] = rng.uniform(-1, 1, p.shape)
    x = Tensor(rng.uniform(-1, 1, (B, T, d)), requires_grad=x_grad)
    if x_grad:
        x.grad = rng.uniform(-1, 1, (B, T, d))
    out = fn(x, fwd, bwd)
    weighted_sum_backward(out, 7)
    return [out.data.tobytes(), x.grad.tobytes() if x_grad else x.grad] + [
        p.grad.tobytes() for p in fwd + bwd]


def live_worker():
    """The worker, started by a backward first if none is running."""
    blstm_run(nm.blstm, 1, 2, 2, 2)
    assert nm._blstm_worker() is not None
    return nm._worker


def worker_caches():
    """Gate caches the worker holds, once it has freed dead nodes' caches."""
    return int(nm._worker.run_pair("count", (), (), [(1,)], lambda: None, lambda _, n: n[0]))


@pytest.fixture(params=["worker", "caller"])
def blstm_mode(request, monkeypatch):
    if request.param == "caller":  # as where no worker can start
        monkeypatch.setattr(nm, "_worker", False)
    else:
        live_worker()
    return request.param


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("B,T,d,H", [(4, 40, 30, 16), (2, 1, 5, 3), (1, 7, 4, 3),
                                     (8, 17, 458, 100)])
def test_blstm_bitwise_two_node_graph_and_tape(B, T, d, H, x_grad, blstm_mode):
    fused = blstm_run(nm.blstm, B, T, d, H, x_grad)
    assert (nm._worker is False) == (blstm_mode == "caller")
    assert fused == blstm_run(tape_reference.blstm, B, T, d, H, x_grad)


def test_blstm_is_one_node_with_seven_parents():
    layer = BLSTM(3, 2, seed=0, prefix="t")
    out = layer.forward(Tensor(np.ones((1, 2, 3)), requires_grad=True))
    assert len(out._parents) == 7 and all(p._parents == () for p in out._parents)


def test_two_live_handles_hierarchical():
    """Two stacked levels, both forwards before one backward: every value
    and gradient bitwise that of the per-step graphs."""
    def run(fn):
        low = BLSTM(5, 4, seed=1, prefix="low")
        high = BLSTM(5 + 8, 4, seed=1, prefix="high")
        x = Tensor(RngState(3).uniform(-1, 1, (3, 6, 5)), requires_grad=True)
        h1 = fn(x, low._dirs["fwd"], low._dirs["bwd"])
        h2 = fn(nm.concat([x, h1], axis=2), high._dirs["fwd"], high._dirs["bwd"])
        if fn is nm.blstm:
            assert worker_caches() == before + 2
        weighted_sum_backward(nm.add(h2, h1), 4)
        return [h2.data.tobytes(), x.grad.tobytes()] + [
            p.grad.tobytes() for p in low.parameters() + high.parameters()]

    live_worker()
    before = worker_caches()
    assert run(nm.blstm) == run(tape_reference.blstm)
    assert worker_caches() == before


def test_forward_only_calls_leave_no_cache():
    layer = BLSTM(4, 3, seed=2, prefix="t")
    x = Tensor(RngState(0).uniform(-1, 1, (2, 5, 4)))
    live_worker()
    before = worker_caches()
    kept = [layer.forward(x) for _ in range(3)]
    assert worker_caches() == before + 3
    del kept
    for _ in range(4):  # as a Viterbi oracle or grad_check's first loss calls do
        layer.forward(x)
    assert worker_caches() == before


def test_worker_error_is_one_numeric_error():
    rng = RngState(5)
    fwd = [Parameter(rng.uniform(-1, 1, s), "f") for s in ((4, 12), (3, 12), (12,))]
    bad = [Parameter(rng.uniform(-1, 1, s), "b") for s in ((5, 12), (3, 12), (12,))]
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
    live_worker()
    with pytest.raises(NumericError) as info:
        nm.blstm(x, fwd, bad)
    message = str(info.value)
    assert message.startswith("BLSTM worker: ValueError") and "\n" not in message
    assert blstm_run(nm.blstm, 2, 3, 4, 3) == blstm_run(tape_reference.blstm, 2, 3, 4, 3)


def test_dead_worker_is_one_numeric_error_then_replaced():
    layer = BLSTM(4, 3, seed=2, prefix="t")
    x = Tensor(RngState(0).uniform(-1, 1, (2, 5, 4)), requires_grad=True)
    old = live_worker()
    out = layer.forward(x)
    os.kill(old.proc.pid, signal.SIGKILL)
    start = time.monotonic()
    with pytest.raises(NumericError, match="exited") as info:
        nm.tsum(out).backward()
    assert time.monotonic() - start < 5 and "\n" not in str(info.value)
    assert old.dead and old.proc.returncode == -signal.SIGKILL
    assert nm._blstm_worker() is None
    assert blstm_run(nm.blstm, 2, 3, 4, 3) == blstm_run(tape_reference.blstm, 2, 3, 4, 3)
    assert nm._worker is not old and not nm._worker.dead


@pytest.mark.parametrize("phase", ["forward", "backward"])
def test_caller_exception_with_a_command_in_flight(phase, monkeypatch):
    """The caller's half raises while the worker runs the reverse direction:
    that exception propagates, the worker's reply is read, and the worker
    stays usable and holds no cache of the failed node."""
    real_run = nm._lstm_run

    def run(*args):
        if not args[6]:  # the forward direction, on the caller
            raise KeyError("caller")
        return real_run(*args)

    def grads(*args):
        raise KeyError("caller")

    layer = BLSTM(4, 3, seed=2, prefix="t")
    x = Tensor(RngState(0).uniform(-1, 1, (2, 5, 4)), requires_grad=True)
    live_worker()
    before = worker_caches()
    with monkeypatch.context() as patch:
        if phase == "forward":
            patch.setattr(nm, "_lstm_run", run)
            with pytest.raises(KeyError, match="caller"):
                layer.forward(x)
        else:
            out = layer.forward(x)
            patch.setattr(nm, "_lstm_grads", grads)
            with pytest.raises(KeyError, match="caller"):
                nm.tsum(out).backward()
            del out
    assert blstm_run(nm.blstm, 2, 3, 4, 3) == blstm_run(tape_reference.blstm, 2, 3, 4, 3)
    assert worker_caches() == before


def gone(pid):
    """True once `pid` has exited (a zombie that nobody reaps counts)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_worker_of_caller_gone_during_its_start_exits():
    # the caller ends, skipping atexit, while its new worker still imports
    code = ("import os; from seqlab import numeric as nm; from seqlab.encoders import BLSTM\n"
            "nm.tsum(BLSTM(2, 2, 0, 't').forward(nm.Tensor([[[1.0, 2.0]]]))).backward()\n"
            "print(nm._worker.proc.pid, flush=True)\n"
            "os._exit(0)\n")
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE, timeout=60,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    pid = int(out.stdout)
    deadline = time.monotonic() + 2.0
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(pid)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_worker_of_killed_caller_exits():
    code = ("import time; from seqlab import numeric as nm; from seqlab.encoders import BLSTM\n"
            "layer = BLSTM(2, 2, 0, 't')\n"
            "nm.tsum(layer.forward(nm.Tensor([[[1.0, 2.0]]]))).backward()\n"
            "out = layer.forward(nm.Tensor([[[1.0, 2.0]]]))\n"
            "print(nm._worker.proc.pid, flush=True)\n"
            "time.sleep(60)\n")
    caller = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    try:
        pid = int(caller.stdout.readline())
        assert not gone(pid)
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
    deadline = time.monotonic() + 2.0
    while not gone(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert gone(pid)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_gets_no_live_handle():
    layer = BLSTM(4, 3, seed=2, prefix="t")
    x = Tensor(RngState(0).uniform(-1, 1, (2, 5, 4)), requires_grad=True)
    parent_worker = live_worker()
    out = layer.forward(x)
    want = blstm_run(nm.blstm, 2, 3, 4, 3)
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)
        code = 1
        try:
            assert nm._worker is None and parent_worker.dead
            with pytest.raises(NumericError, match="gone"):
                nm.tsum(out).backward()
            assert blstm_run(nm.blstm, 2, 3, 4, 3) == want
            assert blstm_run(nm.blstm, 2, 3, 4, 3) == want
            assert nm._worker.proc.pid != parent_worker.proc.pid
            nm._stop_worker()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert nm._worker is parent_worker and not parent_worker.dead
    nm.tsum(out).backward()
    assert worker_caches() == 0


def test_decode_and_no_grad_start_no_worker(monkeypatch):
    def no_worker():
        raise AssertionError("a worker was started")

    monkeypatch.setattr(nm, "_worker", None)
    monkeypatch.setattr(nm, "_Worker", no_worker)
    corpus = make_corpus(4, seed=0)
    vocab = make_vocab(corpus)
    model = build_model(ModelSpec(main_task=FINE, **tiny_spec_kwargs()), vocab)
    from seqlab.corpus import make_batches
    for batch in make_batches(corpus, vocab, 2, RngState(0)):
        model.decode(batch, FINE)
    layer = BLSTM(4, 3, seed=2, prefix="t")
    with nm.no_grad():
        layer.forward(Tensor(np.ones((1, 2, 4)), requires_grad=True))
    layer.forward(Tensor(np.ones((1, 2, 4))))  # taped, but no backward follows
    assert nm._worker is None


def test_first_backward_starts_the_worker(monkeypatch):
    monkeypatch.setattr(nm, "_worker", None)
    layer = BLSTM(4, 3, seed=2, prefix="t")
    out = layer.forward(Tensor(np.ones((1, 2, 4))))
    assert nm._worker is None
    nm.tsum(out).backward()
    try:
        assert nm._blstm_worker() is not None
    finally:
        nm._stop_worker()
