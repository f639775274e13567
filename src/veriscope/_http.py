"""Small JSON-over-HTTP client shared by the remote providers and web search.

Each client lets at most MAX_IN_FLIGHT (4) requests run at once and
retries rate-limit (429) and server (5xx) responses and transport
errors, timeouts included, MAX_RETRIES (4) times with exponential
backoff: 0.5, 1, 2 and 4 s, 7.5 s in all.  Every other failure (a 200
whose body is not JSON, a malformed URL or header) surfaces at once as
ProviderUnavailable, and so does the last retried failure.

requests, and the HTTP stack under it, is imported by the first client
that builds its own session or sends a request, so a run whose providers
all stay in-process never loads it.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .errors import ProviderUnavailable

if TYPE_CHECKING:
    import requests

MAX_IN_FLIGHT = 4
MAX_RETRIES = 4
BACKOFF_BASE = 0.5


class JsonHttpClient:
    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        *,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        self.url = url
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self._semaphore = threading.Semaphore(MAX_IN_FLIGHT)
        self._timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def post(self, payload: dict):
        """POST a JSON payload and return the decoded JSON response."""
        return self._request(self._session.post, json=payload, headers=self._headers)

    def get(self, params: dict):
        """GET with query parameters, no headers; return the decoded JSON response."""
        return self._request(self._session.get, params=params)

    def _request(self, send, **kwargs):
        import requests

        with self._semaphore:
            last_error = None
            for attempt in range(MAX_RETRIES + 1):
                try:
                    response = send(self.url, timeout=self._timeout, **kwargs)
                except requests.RequestException as exc:
                    if isinstance(exc, ValueError):  # a malformed URL or header: no retry mends it
                        raise ProviderUnavailable(f"{self.url}: {type(exc).__name__}") from None
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
                if attempt < MAX_RETRIES:
                    time.sleep(BACKOFF_BASE * (2**attempt))
            raise ProviderUnavailable(f"{self.url}: giving up after retries ({last_error})")
