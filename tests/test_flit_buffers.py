"""Tests for flits, flit buffers and port states."""

import pytest
from hypothesis import given, strategies as st

from repro.network.buffers import FlitBuffer, FlitBufferError, PortState
from repro.network.flit import Flit, FlitKind, make_flits


class TestFlits:
    def test_single_flit_message_is_a_header(self):
        flits = make_flits(7, 1)
        assert len(flits) == 1
        assert flits[0].kind is FlitKind.HEADER
        assert flits[0].is_header

    def test_two_flit_message_is_header_then_tail(self):
        flits = make_flits(7, 2)
        assert [f.kind for f in flits] == [FlitKind.HEADER, FlitKind.TAIL]

    def test_long_message_structure(self):
        flits = make_flits(3, 5)
        assert flits[0].kind is FlitKind.HEADER
        assert flits[-1].kind is FlitKind.TAIL
        assert all(f.kind is FlitKind.BODY for f in flits[1:-1])

    def test_flit_indices_are_sequential(self):
        flits = make_flits(3, 4)
        assert [f.index for f in flits] == [0, 1, 2, 3]

    def test_flits_carry_travel_id(self):
        assert all(f.travel_id == 42 for f in make_flits(42, 3))

    def test_zero_flits_rejected(self):
        with pytest.raises(ValueError):
            make_flits(0, 0)

    def test_flit_str(self):
        assert str(Flit(3, 0, FlitKind.HEADER)) == "H3.0"

    @given(st.integers(1, 50))
    def test_exactly_one_header_and_tail_position(self, n):
        flits = make_flits(0, n)
        headers = [f for f in flits if f.kind is FlitKind.HEADER]
        assert len(headers) == 1 and headers[0].index == 0
        if n > 1:
            tails = [f for f in flits if f.kind is FlitKind.TAIL]
            assert len(tails) == 1 and tails[0].index == n - 1


class TestFlitBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlitBuffer(0)

    def test_fifo_order(self):
        buffer = FlitBuffer(3)
        flits = make_flits(1, 3)
        for flit in flits:
            buffer.push(flit)
        assert [buffer.pop() for _ in range(3)] == flits

    def test_overflow_raises(self):
        buffer = FlitBuffer(1)
        buffer.push(make_flits(1, 1)[0])
        with pytest.raises(FlitBufferError):
            buffer.push(make_flits(2, 1)[0])

    def test_underflow_raises(self):
        with pytest.raises(FlitBufferError):
            FlitBuffer(1).pop()

    def test_occupancy_and_free_slots(self):
        buffer = FlitBuffer(4)
        assert buffer.free_slots == 4 and buffer.is_empty
        buffer.push(make_flits(1, 1)[0])
        assert buffer.occupancy == 1
        assert buffer.free_slots == 3
        assert not buffer.is_empty and not buffer.is_full

    def test_copy_is_independent(self):
        buffer = FlitBuffer(2)
        buffer.push(make_flits(1, 1)[0])
        clone = buffer.copy()
        clone.pop()
        assert buffer.occupancy == 1
        assert clone.occupancy == 0

    @given(st.integers(1, 8), st.integers(0, 8))
    def test_push_pop_sequence_respects_capacity(self, capacity, pushes):
        buffer = FlitBuffer(capacity)
        flits = make_flits(0, max(pushes, 1))
        accepted = 0
        for flit in flits[:pushes]:
            if buffer.is_full:
                with pytest.raises(FlitBufferError):
                    buffer.push(flit)
            else:
                buffer.push(flit)
                accepted += 1
        assert buffer.occupancy == min(pushes, capacity) == accepted


class TestPortState:
    def test_accepts_when_empty(self):
        state = PortState.with_capacity(2)
        assert state.accepts(1)
        assert state.is_available

    def test_ownership_excludes_other_travels(self):
        state = PortState.with_capacity(2)
        state.accept(Flit(1, 0, FlitKind.HEADER))
        assert state.owner == 1
        assert state.accepts(1)
        assert not state.accepts(2)

    def test_full_port_rejects_even_owner(self):
        state = PortState.with_capacity(1)
        state.accept(Flit(1, 0, FlitKind.HEADER))
        assert not state.accepts(1)

    def test_accept_of_wrong_travel_raises(self):
        state = PortState.with_capacity(2)
        state.accept(Flit(1, 0, FlitKind.HEADER))
        with pytest.raises(FlitBufferError):
            state.accept(Flit(2, 0, FlitKind.HEADER))

    def test_release_returns_fifo_head_and_frees_ownership(self):
        state = PortState.with_capacity(2)
        header, tail = make_flits(1, 2)
        state.accept(header)
        state.accept(tail)
        assert state.release() == header
        assert state.owner == 1  # still holds the tail
        assert state.release() == tail
        assert state.owner is None
        assert state.is_available

    def test_is_available_semantics(self):
        state = PortState.with_capacity(2)
        assert state.is_available
        state.accept(Flit(5, 0, FlitKind.HEADER))
        # Owned but not full: not "available" in the deadlock-witness sense.
        assert not state.is_available

    def test_copy_is_deep(self):
        state = PortState.with_capacity(2)
        state.accept(Flit(1, 0, FlitKind.HEADER))
        clone = state.copy()
        clone.release()
        assert state.buffer.occupancy == 1
        assert clone.buffer.occupancy == 0

    def test_str_contains_occupancy(self):
        state = PortState.with_capacity(2)
        state.accept(Flit(1, 0, FlitKind.HEADER))
        assert "1/2" in str(state)
