"""Fail any net test during which asyncio logged an error.

An exception raised inside a protocol callback (``data_received``,
``connection_lost``) never reaches an awaiting caller: asyncio hands it
to the event loop's exception handler, which logs it on the ``asyncio``
logger at ERROR ("Exception in callback ...", "Task was destroyed but
it is pending!"). Without this fixture such a test would pass.
"""

from __future__ import annotations

import gc
import logging

import pytest


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_asyncio_errors():
    handler = _Collect()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()  # a pending task the test dropped is reported now
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged errors:\n"
            + "\n".join(handler.format(record) for record in handler.records)
        )
