"""Tests for CAN capture logs."""

import pytest

from repro.can import CanFrame, CanLog


def frame(can_id, data, t):
    return CanFrame(can_id, data, timestamp=t)


class TestCanLog:
    def test_append_and_len(self):
        log = CanLog()
        log.append(frame(0x100, b"\x01", 1.0))
        log.append(frame(0x200, b"\x02", 2.0))
        assert len(log) == 2

    def test_out_of_order_rejected(self):
        log = CanLog()
        log.append(frame(0x100, b"", 2.0))
        with pytest.raises(ValueError):
            log.append(frame(0x100, b"", 1.0))

    def test_equal_timestamps_allowed(self):
        log = CanLog()
        log.append(frame(0x100, b"", 1.0))
        log.append(frame(0x200, b"", 1.0))
        assert len(log) == 2

    def test_between_is_half_open(self):
        log = CanLog([frame(0x1, b"", t) for t in (1.0, 2.0, 3.0)])
        window = log.between(1.0, 3.0)
        assert [f.timestamp for f in window] == [1.0, 2.0]

    def test_with_id(self):
        log = CanLog([frame(0x1, b"", 1.0), frame(0x2, b"", 2.0), frame(0x1, b"", 3.0)])
        assert len(log.with_id(0x1)) == 2

    def test_ids_first_seen_order(self):
        log = CanLog([frame(0x5, b"", 1.0), frame(0x2, b"", 2.0), frame(0x5, b"", 3.0)])
        assert log.ids() == [0x5, 0x2]

    def test_save_load_roundtrip(self, tmp_path):
        log = CanLog(
            [frame(0x7E0, b"\x02\x10\x03", 1.5), frame(0x7E8, b"\x06\x50\x03", 1.6)]
        )
        path = tmp_path / "capture.log"
        log.save(path)
        loaded = CanLog.load(path)
        assert list(loaded) == list(log)

    def test_empty_save_load(self, tmp_path):
        path = tmp_path / "empty.log"
        CanLog().save(path)
        assert len(CanLog.load(path)) == 0


class CountedChunk:
    """A sized frame sequence that counts the frames taken from it."""

    def __init__(self, frames):
        self._frames = list(frames)
        self.taken = 0

    def __len__(self):
        return len(self._frames)

    def __iter__(self):
        for item in self._frames:
            self.taken += 1
            yield item

    def __getitem__(self, index):
        self.taken += 1
        return self._frames[index]


class TestChunkedLog:
    def chunks(self):
        first = CountedChunk(frame(0x100 + i, bytes([i]), 0.1 * i) for i in range(3))
        second = CountedChunk(frame(0x200 + i, bytes([i]), 1.0 + 0.1 * i) for i in range(2))
        return first, second

    def test_length_takes_no_frame(self):
        first, second = self.chunks()
        log = CanLog.from_chunks([first, CountedChunk([]), second])
        assert len(log) == 5
        assert first.taken == second.taken == 0

    def test_iteration_and_queries_see_the_frames_in_order(self, tmp_path):
        first, second = self.chunks()
        expected = list(first._frames) + list(second._frames)
        log = CanLog.from_chunks([first, second])
        assert list(log) == expected
        assert log.ids() == [f.can_id for f in expected]
        assert list(log.between(0.15, 1.05)) == expected[2:4]
        path = tmp_path / "chunked.log"
        log.save(path)
        assert list(CanLog.load(path)) == expected

    def test_indexing_and_append_flatten_once(self):
        first, second = self.chunks()
        log = CanLog.from_chunks([first, second])
        assert log[3] == second._frames[0]
        assert log.frames == list(first._frames) + list(second._frames)
        assert (first.taken, second.taken) == (3, 2)
        with pytest.raises(ValueError):
            log.append(frame(0x300, b"", 0.5))
        log.append(frame(0x300, b"", 2.0))
        assert len(log) == 6 and log[-1].can_id == 0x300
        assert (first.taken, second.taken) == (3, 2)
