"""The scheduler suites' one blocking call."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ask():
    """``ask(server, kind, ids, view, **where) -> list[bool]``: one frame, waited for.

    :meth:`~repro.serve.ProvenanceServer.submit_batch`, then — on a server
    with no workers — :meth:`~repro.serve.ProvenanceServer.drain_once` until
    the frame resolves.  The scheduler keeps no blocking call of its own.
    """

    def ask(server, kind, ids, view, **where) -> list:
        future = server.submit_batch(kind, ids, view, **where)
        while not server.running and not future.done() and server.drain_once():
            pass
        return future.result(timeout=30).tolist()

    return ask
