"""Every ``repro.exceptions`` class survives a pickle round trip.

An error raised in a pool worker reaches the coordinator pickled; one
that cannot be rebuilt there surfaces as a broken pool instead.
"""

import pickle

import pytest

from repro import exceptions

#: Constructor arguments for the classes that take more than a message.
ARGUMENTS = {
    "NodeNotFoundError": (7, 3),
    "BudgetError": (2.5, 1.0),
    "CheckpointError": ("torn cell", "/tmp/cell.json"),
    "PoisonChunkError": (4, 3, ("boom", "bang")),
    "PoolBrokenError": (2,),
}


@pytest.mark.parametrize("name", exceptions.__all__)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip(name, protocol):
    error = getattr(exceptions, name)(*ARGUMENTS.get(name, ("something broke",)))
    restored = pickle.loads(pickle.dumps(error, protocol=protocol))
    assert type(restored) is type(error)
    assert str(restored) == str(error)
    assert restored.args == error.args
    assert vars(restored) == vars(error)
