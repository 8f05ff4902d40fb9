"""Shared helpers for the dist tests."""


def wait_all(session, tags, timeout=30.0, worker_grace=60.0):
    """Block until every tag resolves; ``(status, value)`` in tag order.

    ``status`` is ``"ok"`` (``value``: pickled payload bytes) or
    ``"error"`` (``value``: the traceback text).  Raises like
    :meth:`~repro.dist.client.ClientSession.wait_next`.
    """
    landed = dict(session.as_completed(tags, timeout=timeout,
                                       worker_grace=worker_grace))
    return [landed[tag] for tag in tags]
