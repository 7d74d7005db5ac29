"""Test helper: bind a protocol the way the single-run API does."""

from repro.radio.batch import BatchRandomSource, NetworkBatch


def bind_one(protocol, network, seed=None):
    """Bind ``protocol`` to a one-trial batch of ``network`` in exact mode
    (the binding :func:`~repro.radio.engine.run_protocol` makes)."""
    protocol.bind(NetworkBatch([network]), BatchRandomSource.exact([seed]))
    return protocol
