"""`numeric.run_pair` and the layers that use it: the wide CRF's
log-partition and the LM heads give bitwise the same values and gradients
with the worker thread on and with both halves forced onto the caller."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

import tape_reference
from seqlab import lm, numeric as nm
from seqlab.crf import STEP_BUFFER_ELEMS, CRFLayer, crf_log_z
from seqlab.numeric import RngState, Tensor


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
    caller's CRF and LM results stay those of the serial run."""
    with monkeypatch.context() as serial:
        serial.setattr(nm, "run_pair", serial_pair)
        want_crf = crf_run(crf_log_z, 3, 6, 160)
        want_lm = lm_run()
    results = []

    def call():
        results.append((crf_run(crf_log_z, 3, 6, 160), lm_run()))

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
    assert results == [(want_crf, want_lm)] * 3
