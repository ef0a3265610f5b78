"""The ``queue`` transport's channel: a bounded SPSC pipe, no feeder thread.

Unit facts first (bound, FIFO, ``Full``/``Empty``, messages around
``PIPE_BUF`` — where spilling starts — and around the 64 KB pipe
capacity), then the same contract under hypothesis against a list
model, across ``fork`` and ``spawn``, and the one hazard the old
``multiprocessing.Queue`` feeder thread used to hide: large messages to
a reader that has died must not park the sender beyond the stop flag.
Spilled messages go into reusable mapped slots: at most ``maxsize``
files per channel, none for a message that fits the pipe, none at all
after ``destroy``.  Arrays get a section of their own: buffers of a
page or more travel out of band — raw, beside the pickle, in the slot —
at any nesting.
"""

import errno
import gc
import glob
import multiprocessing
import os
import pickle
import queue
import select
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.kernel import Kernel, Latch, Shutdown
from repro.shm import get_transport
from repro.shm.pipe import _INLINE_MAX, PipeChannel
from repro.shm.registry import EdgeSpec

START_METHODS = [
    m for m in ("fork", "spawn")
    if m in multiprocessing.get_all_start_methods()
]

#: Linux's default pipe capacity; messages are sized around it.
PIPE_CAPACITY = 65536
#: Pickle framing of a ``bytes`` payload (protocol header, length, STOP).
PICKLE_OVERHEAD = len(pickle.dumps(b"\0" * 1000, pickle.HIGHEST_PROTOCOL)) \
    - 1000


def pipe_entries():
    return {name for name in os.listdir("/dev/shm")
            if name.startswith("repro-pipe-")}


@pytest.fixture(autouse=True)
def dev_shm_is_as_it_was():
    """No test leaves a channel's file in ``/dev/shm``."""
    before = pipe_entries()
    yield
    gc.collect()
    assert pipe_entries() == before


def make_channel(maxsize=4, method=None):
    return PipeChannel(multiprocessing.get_context(method), maxsize)


def spill_files(channel):
    return glob.glob(glob.escape(channel._spill_prefix) + "*")


def open_fds():
    return set(os.listdir("/proc/self/fd"))


class TestContract:
    def test_is_what_the_queue_transport_builds(self):
        ctx = multiprocessing.get_context()
        spec = EdgeSpec("e0", "a", "b", "P0", "P1")
        channel = get_transport("queue").channel_for(
            spec, ctx, queue_size=3, options={})
        try:
            assert isinstance(channel, PipeChannel)
            for i in range(3):
                channel.put_nowait(i)
            with pytest.raises(queue.Full):
                channel.put_nowait(3)
        finally:
            channel.destroy()

    def test_fifo(self):
        channel = make_channel(maxsize=8)
        try:
            for i in range(8):
                channel.put(("packet", i), timeout=1.0)
            assert [channel.get(timeout=1.0) for _ in range(8)] == [
                ("packet", i) for i in range(8)
            ]
        finally:
            channel.destroy()

    def test_bound_is_honoured_and_freed_by_get(self):
        channel = make_channel(maxsize=2)
        try:
            channel.put_nowait("a")
            channel.put_nowait("b")
            with pytest.raises(queue.Full):
                channel.put_nowait("c")
            start = time.monotonic()
            with pytest.raises(queue.Full):
                channel.put("c", timeout=0.05)
            assert 0.04 <= time.monotonic() - start < 1.0
            assert channel.get_nowait() == "a"
            channel.put_nowait("c")  # the freed slot
            assert channel.get_nowait() == "b"
            assert channel.get_nowait() == "c"
        finally:
            channel.destroy()

    def test_empty(self):
        channel = make_channel()
        try:
            with pytest.raises(queue.Empty):
                channel.get_nowait()
            start = time.monotonic()
            with pytest.raises(queue.Empty):
                channel.get(timeout=0.05)
            assert 0.04 <= time.monotonic() - start < 1.0
        finally:
            channel.destroy()

    def test_read_end_is_readable_exactly_while_a_packet_waits(self):
        channel = make_channel()
        try:
            poller = select.poll()
            poller.register(channel.fileno(), select.POLLIN)
            assert poller.poll(0) == []
            channel.put_nowait("x")
            channel.put_nowait(os.urandom(3 * PIPE_CAPACITY))
            for _ in range(2):
                assert poller.poll(1000)
                channel.get_nowait()
            assert poller.poll(0) == []
        finally:
            channel.destroy()

    @pytest.mark.parametrize("size", [
        0, 1,
        _INLINE_MAX - PICKLE_OVERHEAD,      # the largest inline message
        _INLINE_MAX - PICKLE_OVERHEAD + 1,  # the smallest spilled one
        PIPE_CAPACITY // 2, PIPE_CAPACITY - 64, PIPE_CAPACITY,
        PIPE_CAPACITY + 1, 4 * PIPE_CAPACITY + 7,
    ])
    def test_payloads_around_pipe_buf_and_the_pipe_capacity(self, size):
        """A message is whole the moment ``put`` returns, whatever its
        size: up to PIPE_BUF inside the pipe and no file at all, beyond
        it in a slot that stays for the next spilled message."""
        channel = make_channel()
        payload = os.urandom(size)
        spills = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)) \
            > _INLINE_MAX
        try:
            channel.put_nowait(payload)
            assert len(spill_files(channel)) == (1 if spills else 0)
            assert channel.get_nowait() == payload
            assert len(spill_files(channel)) == (1 if spills else 0)
            channel.put_nowait("after")  # the stream is still framed
            assert channel.get_nowait() == "after"
        finally:
            channel.destroy()
        assert spill_files(channel) == []

    def test_a_live_channel_holds_at_most_maxsize_slot_files(self):
        """Messages that fit the pipe — a farm's whole traffic — make
        no file; spilled ones reuse ``maxsize`` slots however many
        cross, full or drained."""
        channel = make_channel(maxsize=3)
        try:
            for i in range(50):
                channel.put_nowait(("small", i, b"\0" * 1000))
                assert channel.get_nowait()[1] == i
            assert spill_files(channel) == []
            for round_ in range(5):
                sent = [os.urandom(PIPE_CAPACITY + round_ * 1000 + i)
                        for i in range(3)]
                for payload in sent:
                    channel.put_nowait(payload)
                    assert len(spill_files(channel)) <= 3
                assert [channel.get_nowait() for _ in sent] == sent
            for i in range(20):  # one in flight: the serial walks the slots
                payload = os.urandom(2 * PIPE_CAPACITY + i)
                channel.put_nowait(payload)
                assert channel.get_nowait() == payload
            assert len(spill_files(channel)) == 3
        finally:
            channel.destroy()
        assert spill_files(channel) == []

    def test_large_messages_never_wait_for_the_reader(self):
        """The bound counts messages, not bytes: ``maxsize`` messages
        far beyond the pipe's capacity are accepted at once, nobody
        reading, and the next one is refused — not parked."""
        channel = make_channel(maxsize=3)
        big = [os.urandom(4 * PIPE_CAPACITY) for _ in range(3)]
        try:
            start = time.monotonic()
            for payload in big:
                channel.put_nowait(payload)
            with pytest.raises(queue.Full):
                channel.put_nowait(b"one too many")
            assert time.monotonic() - start < 1.0
            assert [channel.get_nowait() for _ in big] == big
        finally:
            channel.destroy()

    def test_more_slots_than_the_pipe_holds(self):
        """A ``queue_size`` above 16 lets the *pipe* fill before the
        slots run out: the atomic write is refused whole and the value
        is not enqueued."""
        channel = make_channel(maxsize=64)
        payload = os.urandom(_INLINE_MAX - PICKLE_OVERHEAD)
        accepted = 0
        try:
            with pytest.raises(queue.Full):
                for _ in range(64):
                    channel.put_nowait(payload)
                    accepted += 1
            assert 8 <= accepted < 64  # 16 on Linux: one page each
            start = time.monotonic()
            with pytest.raises(queue.Full):
                channel.put(payload, timeout=0.05)
            assert 0.04 <= time.monotonic() - start < 1.0
            assert channel.get_nowait() == payload
            channel.put_nowait(payload)  # room again
            for _ in range(accepted):
                assert channel.get_nowait() == payload
            with pytest.raises(queue.Empty):
                channel.get_nowait()
        finally:
            channel.destroy()

    def test_accepted_at_marks_the_end_of_the_back_pressure_wait(self):
        channel = make_channel(maxsize=1)
        try:
            channel.put_nowait("fills the only slot")
            freer = threading.Timer(0.05, channel.get_nowait)
            freer.start()
            before = time.perf_counter()
            channel.put("waits for the slot", timeout=5.0)
            freer.join(5.0)
            assert channel.accepted_at - before >= 0.04
        finally:
            channel.destroy()

    def test_destroy_leaves_no_fd_and_no_shm_entry(self):
        gc.collect()
        fds, shm = open_fds(), set(os.listdir("/dev/shm"))
        for method in START_METHODS:
            channel = make_channel(method=method)
            channel.put_nowait("x")
            assert channel.get_nowait() == "x"
            channel.put_nowait(os.urandom(PIPE_CAPACITY))  # never read
            assert set(os.listdir("/dev/shm")) != shm
            channel.destroy()
            del channel
        gc.collect()
        assert open_fds() == fds
        assert set(os.listdir("/dev/shm")) == shm


class TestCredits:
    """Credits replace a semaphore: ``maxsize`` bytes in a pipe, one
    taken per ``put`` and given back by the ``get`` that copied the
    message out — so a parked sender can ``poll`` for room."""

    def test_put_nowait_is_refused_until_a_get(self):
        channel = make_channel(maxsize=3)
        try:
            for i in range(3):
                channel.put_nowait(i)
            for _ in range(3):
                with pytest.raises(queue.Full):
                    channel.put_nowait("refused")
            assert channel.get_nowait() == 0
            channel.put_nowait(3)
            with pytest.raises(queue.Full):
                channel.put_nowait("refused")
            assert [channel.get_nowait() for _ in range(3)] == [1, 2, 3]
        finally:
            channel.destroy()

    def test_the_credit_descriptor_is_readable_exactly_when_a_put_would_get_one(
            self):
        channel = make_channel(maxsize=2)
        poller = select.poll()
        poller.register(channel.room_fileno(), select.POLLIN)

        def room():
            return bool(poller.poll(0))

        try:
            assert room()
            channel.put_nowait("small")
            assert room()
            channel.put_nowait(os.urandom(3 * PIPE_CAPACITY))  # spilled
            assert not room()
            assert channel.get_nowait() == "small"
            assert room()
            channel.put_nowait("again")
            assert not room()
            for _ in range(2):
                channel.get_nowait()
            assert room()
        finally:
            channel.destroy()

    def test_a_full_data_pipe_holds_the_credits_until_a_get(self):
        """Above 16 slots the pipe can fill first: the refused producer
        holds what credits it sees, so the descriptor stays quiet —
        no parked sender spins — until a get makes room."""
        channel = make_channel(maxsize=64)
        payload = os.urandom(_INLINE_MAX - PICKLE_OVERHEAD)
        poller = select.poll()
        poller.register(channel.room_fileno(), select.POLLIN)
        accepted = 0
        try:
            with pytest.raises(queue.Full):
                for _ in range(64):
                    channel.put_nowait(payload)
                    accepted += 1
            assert poller.poll(0) == []
            assert channel.get_nowait() == payload
            assert poller.poll(0)
            channel.put_nowait(payload)
            for _ in range(accepted):
                assert channel.get_nowait() == payload
        finally:
            channel.destroy()

    def test_maxsize_is_what_the_credit_pipe_can_hold(self):
        for maxsize in (0, select.PIPE_BUF + 1):
            with pytest.raises(ValueError):
                make_channel(maxsize=maxsize)


class TestAgainstAModel:
    """Any interleaving of non-blocking puts and gets behaves like a
    bounded FIFO: nothing lost, duplicated or reordered, a put refused
    exactly when ``maxsize`` messages are unread, a get exactly when
    none is."""

    @settings(max_examples=60, deadline=None)
    @given(
        maxsize=st.integers(min_value=1, max_value=5),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.sampled_from(
                    [0, 10, 4000, _INLINE_MAX, PIPE_CAPACITY // 3,
                     PIPE_CAPACITY, 2 * PIPE_CAPACITY + 13])),
                st.tuples(st.just("get"), st.just(0)),
            ),
            max_size=40,
        ),
    )
    def test_bounded_fifo(self, maxsize, ops):
        channel = make_channel(maxsize=maxsize)
        model = []
        try:
            for serial, (op, size) in enumerate(ops):
                if op == "put":
                    # Distinct bytes per message: a slot reused across
                    # wrap-around must hold only its current message.
                    value = (serial, bytes([serial % 251]) * size)
                    if len(model) < maxsize:
                        channel.put_nowait(value)
                        model.append(value)
                    else:
                        with pytest.raises(queue.Full):
                            channel.put_nowait(value)
                elif model:
                    assert channel.get_nowait() == model.pop(0)
                else:
                    with pytest.raises(queue.Empty):
                        channel.get_nowait()
            for value in model:
                assert channel.get_nowait() == value
            with pytest.raises(queue.Empty):
                channel.get_nowait()
            assert len(spill_files(channel)) <= maxsize
        finally:
            channel.destroy()
        assert spill_files(channel) == []


KB = 1024
ARRAY_BYTES = [4 * KB, 64 * KB, 256 * KB, 1024 * KB]


def array_message(nbytes, nested):
    """An array of ``nbytes``, bare or buried in containers beside a
    small one (which stays inside the pickle)."""
    arr = np.arange(nbytes // 8, dtype=np.int64).reshape(-1, 64)
    if not nested:
        return arr
    return {"frame": ("image", arr), "windows": [arr[:1].copy(), 7]}


def assert_same_message(got, sent):
    if isinstance(sent, np.ndarray):
        np.testing.assert_array_equal(got, sent)
        assert got.dtype == sent.dtype and got.flags.writeable
        return
    assert_same_message(got["frame"][1], sent["frame"][1])
    assert_same_message(got["windows"][0], sent["windows"][0])
    assert (got["frame"][0], got["windows"][1]) == ("image", 7)


class TestOutOfBandArrays:
    @pytest.mark.parametrize("nested", [False, True], ids=["bare", "nested"])
    @pytest.mark.parametrize("nbytes", ARRAY_BYTES)
    def test_round_trip(self, nbytes, nested):
        channel = make_channel(maxsize=1)
        sent = array_message(nbytes, nested)
        shm = set(os.listdir("/dev/shm"))
        try:
            channel.put_nowait(sent)
            (slot,) = spill_files(channel)
            # Raw beside the pickle, not a second copy inside it.
            assert nbytes <= os.path.getsize(slot) < nbytes + 2 * KB
            got = channel.get_nowait()
            assert_same_message(got, sent)
            got_arr = got if not nested else got["frame"][1]
            got_arr[0, 0] = -1  # the receiver owns what it got:
            channel.put_nowait(sent)  # the slot's next message
            assert_same_message(channel.get_nowait(), sent)
            assert got_arr[0, 0] == -1  # does not show through it
        finally:
            channel.destroy()
        assert set(os.listdir("/dev/shm")) == shm

    def test_a_slot_grows_and_still_serves_smaller_messages(self):
        """One slot (``maxsize`` 1) takes 64 KB, then 1 MB — grown in
        place — then 64 KB again, with nothing of the larger message
        showing through the smaller one."""
        channel = make_channel(maxsize=1)
        try:
            for nbytes in (64 * KB, 1024 * KB, 64 * KB):
                sent = np.full(nbytes, nbytes // KB % 251, dtype=np.uint8)
                channel.put_nowait(sent)
                (slot,) = spill_files(channel)
                assert os.path.getsize(slot) >= nbytes
                got = channel.get_nowait()
                assert got.shape == sent.shape
                np.testing.assert_array_equal(got, sent)
            assert os.path.getsize(slot) >= 1024 * KB  # never shrinks
        finally:
            channel.destroy()
        assert spill_files(channel) == []

    def test_a_full_spill_directory_surfaces_and_leaves_nothing(
            self, monkeypatch):
        """Pages are reserved before the mapping is written, so a full
        ``/dev/shm`` is ``ENOSPC`` from ``put`` — for a new slot and for
        one that must grow — never a SIGBUS; the credit comes back and
        the channel carries the next message."""
        channel = make_channel(maxsize=1)

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        small = array_message(64 * KB, nested=False)
        try:
            for warm in (False, True):
                if warm:  # the slot exists and is mapped; it must grow
                    channel.put_nowait(small)
                    assert_same_message(channel.get_nowait(), small)
                with monkeypatch.context() as patched:
                    patched.setattr(os, "posix_fallocate", full)
                    with pytest.raises(OSError) as caught:
                        channel.put_nowait(
                            array_message(256 * KB, nested=False))
                    assert caught.value.errno == errno.ENOSPC
                channel.put_nowait("the only slot was given back")
                assert channel.get_nowait() == "the only slot was given back"
            channel.put_nowait(small)
            assert_same_message(channel.get_nowait(), small)
        finally:
            channel.destroy()
        assert spill_files(channel) == []


def _produce(channel, values):
    for value in values:
        channel.put(value, timeout=30.0)


def _consume_forever(channel, ready):
    ready.set()
    while True:
        channel.get(timeout=30.0)


def _die_mid_frame(channel, fetched):
    """Take one spilled frame out of its slot, then hang — holding the
    mapping and the credit — until SIGKILLed."""
    real_fetch = channel._fetch

    def fetch_and_hang(descriptor):
        parts = real_fetch(descriptor)
        fetched.set()
        time.sleep(60.0)
        return parts

    channel._fetch = fetch_and_hang
    channel.get(timeout=30.0)


class TestAcrossProcesses:
    @pytest.mark.parametrize("method", START_METHODS)
    def test_child_producer_parent_consumer(self, method):
        ctx = multiprocessing.get_context(method)
        channel = PipeChannel(ctx, 4)
        values = [("small", i) for i in range(20)]
        values.insert(7, os.urandom(5 * PIPE_CAPACITY))
        child = ctx.Process(target=_produce, args=(channel, values))
        try:
            child.start()
            got = [channel.get(timeout=30.0) for _ in values]
            child.join(30.0)
            assert child.exitcode == 0
            assert got == values
        finally:
            channel.destroy()

    @pytest.mark.parametrize("method", START_METHODS)
    def test_arrays_from_a_child_producer(self, method):
        ctx = multiprocessing.get_context(method)
        channel = PipeChannel(ctx, 4)
        values = [array_message(nbytes, nested)
                  for nbytes in ARRAY_BYTES for nested in (False, True)]
        child = ctx.Process(target=_produce, args=(channel, values))
        try:
            child.start()
            for sent in values:
                assert_same_message(channel.get(timeout=30.0), sent)
            child.join(30.0)
            assert child.exitcode == 0
            assert 0 < len(spill_files(channel)) <= 4
        finally:
            channel.destroy()
        assert spill_files(channel) == []

    def test_channel_only_pickles_while_spawning(self):
        channel = make_channel()
        try:
            with pytest.raises(RuntimeError):
                pickle.dumps(channel)
        finally:
            channel.destroy()

    @pytest.mark.parametrize("method", START_METHODS)
    def test_sigkilled_reader_then_stop_unwinds_the_sender(self, method):
        """What the feeder thread used to hide: the reader dies while
        arrays larger than the pipe are streaming at it.  The sender,
        parked on credits that will never come back, must unwind on the
        stop — nothing else can wake it — and the unread spill files go
        with the channel."""
        ctx = multiprocessing.get_context(method)
        channel = PipeChannel(ctx, 4)
        ready = ctx.Event()
        reader = ctx.Process(target=_consume_forever, args=(channel, ready))
        stop = Latch()
        kernel = Kernel(hosts="P0", remote={"e0": channel}, stop=stop)
        unwound = []

        def sender():
            big = np.ones(3 * PIPE_CAPACITY, dtype=np.uint8)
            try:
                while True:
                    kernel.send_("e0", big)
            except Shutdown:
                unwound.append(True)

        thread = threading.Thread(target=sender, daemon=True)
        try:
            reader.start()
            assert ready.wait(30.0)
            thread.start()
            time.sleep(0.1)  # packets are flowing
            os.kill(reader.pid, signal.SIGKILL)
            reader.join(10.0)
            time.sleep(0.2)  # the sender is now out of slots
            assert thread.is_alive() and not unwound
            assert spill_files(channel)
            stop.set()
            thread.join(5.0)
            assert not thread.is_alive() and unwound == [True]
        finally:
            stop.set()
            channel.destroy()
        assert spill_files(channel) == []

    @pytest.mark.parametrize("method", START_METHODS)
    def test_a_consumer_killed_mid_frame_leaves_nothing(self, method):
        ctx = multiprocessing.get_context(method)
        channel = PipeChannel(ctx, 2)
        fetched = ctx.Event()
        consumer = ctx.Process(target=_die_mid_frame, args=(channel, fetched))
        shm = set(os.listdir("/dev/shm"))
        try:
            consumer.start()
            frame = array_message(256 * KB, nested=True)
            channel.put(frame, timeout=30.0)
            channel.put(frame, timeout=30.0)  # the second slot
            assert fetched.wait(30.0)
            os.kill(consumer.pid, signal.SIGKILL)
            consumer.join(10.0)
            assert consumer.exitcode == -signal.SIGKILL
            assert len(spill_files(channel)) == 2
        finally:
            if consumer.is_alive():  # pragma: no cover - never fetched
                consumer.kill()
                consumer.join(10.0)
            channel.destroy()
        assert spill_files(channel) == []
        assert set(os.listdir("/dev/shm")) == shm
