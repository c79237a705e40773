"""Tests for the exception hierarchy."""

import pickle

import pytest

from repro.errors import (
    BankConflictError,
    BufferOverflowError,
    CacheMissError,
    ConfigurationError,
    QueueEmptyError,
    RenamingError,
    ReproError,
    SchedulingError,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc_class", [
        ConfigurationError, CacheMissError, BankConflictError,
        BufferOverflowError, QueueEmptyError, RenamingError, SchedulingError,
    ])
    def test_all_derive_from_repro_error(self, exc_class):
        assert issubclass(exc_class, ReproError)

    @pytest.mark.parametrize("error", [
        CacheMissError(queue=53, slot=527),
        BankConflictError(bank=5, slot=40, busy_until=48),
        BufferOverflowError("tail SRAM", capacity=3, occupancy=4),
        QueueEmptyError(queue=3),
        ConfigurationError("bad config"),
    ], ids=lambda error: type(error).__name__)
    def test_round_trips_through_pickle(self, error):
        """A sweep worker returns a job's error through a pickling queue."""
        again = pickle.loads(pickle.dumps(error))
        assert type(again) is type(error)
        assert str(again) == str(error)
        assert vars(again) == vars(error)


class TestCacheMissError:
    def test_carries_queue_and_slot(self):
        error = CacheMissError(queue=7, slot=123)
        assert error.queue == 7
        assert error.slot == 123
        assert "queue 7" in str(error)
        assert "123" in str(error)


class TestBankConflictError:
    def test_message_mentions_bank_and_slots(self):
        error = BankConflictError(bank=5, slot=40, busy_until=48)
        assert error.bank == 5
        assert "bank 5" in str(error)
        assert "48" in str(error)


class TestBufferOverflowError:
    def test_carries_capacity_and_occupancy(self):
        error = BufferOverflowError("tail SRAM", capacity=10, occupancy=11)
        assert error.capacity == 10
        assert error.occupancy == 11
        assert "tail SRAM" in str(error)


class TestQueueEmptyError:
    def test_default_message(self):
        error = QueueEmptyError(queue=3)
        assert "3" in str(error)
