"""Small JSON-over-HTTP client shared by the remote providers and web search.

Bounds the number of in-flight requests with a semaphore and retries
rate-limit (429) and server (5xx) responses and transport errors with
exponential backoff.  Every other failure surfaces as
ProviderUnavailable.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import requests

from .errors import ProviderUnavailable

DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_MAX_RETRIES = 4
DEFAULT_BACKOFF_BASE = 0.5


class JsonHttpClient:
    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        *,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        max_retries: int = DEFAULT_MAX_RETRIES,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        timeout: float = 30.0,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.url = url
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self._semaphore = threading.Semaphore(max_in_flight)
        self._max_retries = max_retries
        self._backoff_base = backoff_base
        self._timeout = timeout
        self._session = session or requests.Session()
        self._sleep = sleep

    def post(self, payload: dict):
        """POST a JSON payload and return the decoded JSON response."""
        return self._request(self._session.post, json=payload, headers=self._headers)

    def get(self, params: dict):
        """GET with query parameters, no headers; return the decoded JSON response."""
        return self._request(self._session.get, params=params)

    def _request(self, send, **kwargs):
        with self._semaphore:
            last_error = None
            for attempt in range(self._max_retries + 1):
                try:
                    response = send(self.url, timeout=self._timeout, **kwargs)
                except requests.RequestException as exc:
                    last_error = str(exc)
                else:
                    if response.status_code == 200:
                        try:
                            return response.json()
                        except ValueError as exc:
                            raise ProviderUnavailable(
                                f"{self.url}: response was not JSON: {exc}"
                            ) from exc
                    if response.status_code == 429 or response.status_code >= 500:
                        last_error = f"HTTP {response.status_code}"
                    else:
                        raise ProviderUnavailable(f"{self.url}: HTTP {response.status_code}")
                if attempt < self._max_retries:
                    self._sleep(self._backoff_base * (2**attempt))
            raise ProviderUnavailable(f"{self.url}: giving up after retries ({last_error})")
