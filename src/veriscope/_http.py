"""Small JSON-over-HTTP client shared by the remote providers and web search.

A client is the one reader of its endpoint URL: it refuses one without an
http(s) scheme and a host (ConfigurationError, quoting no part of it) and
names the endpoint by host (host and port, no user info, path or query)
in every ProviderUnavailable; a transport error adds only its class name.
A remote provider given a client and a url (provider_client) needs the url
to be the client's own, so no provider records one endpoint and sends to
another.
At most MAX_IN_FLIGHT (4) requests run at once.  429, 5xx and transport
errors, timeouts included, are retried MAX_RETRIES (4) times with backoff
0.5, 1, 2 and 4 s; any other failure (a non-JSON 200, a URL or header that
requests refuses) surfaces at once, as does the last retry's.

requests is imported by the first client that builds its own session or
sends a request, so a run of in-process providers never loads it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .errors import ConfigurationError, ProviderUnavailable

if TYPE_CHECKING:
    import requests

MAX_IN_FLIGHT = 4
MAX_RETRIES = 4
BACKOFF_BASE = 0.5


def _host(url: str) -> str | None:
    """The host and port of an http(s) URL, without user info; None for any other URL."""
    try:
        parts = urlsplit(url)
    except ValueError:  # an unbalanced IPv6 bracket, say
        return None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        return None
    return parts.netloc.rpartition("@")[2]


def provider_client(
    client: JsonHttpClient | None, url: str | None, api_key: str | None, url_env: str, key_env: str, missing: str
) -> JsonHttpClient:
    """The client a remote provider sends through: client if given, else one for url
    (or $url_env) with api_key (or $key_env); no URL at all raises ConfigurationError(missing).

    A url given beside a client must be the client's own URL, or ConfigurationError
    names both endpoints by host.
    """
    if client is not None:
        if url is not None and url != client.url:
            raise ConfigurationError(
                f"the url given ({_host(url) or 'no http(s) host'}) is not the URL of the client "
                f"given ({client.host}); pass the client alone"
            )
        return client
    url = url or os.environ.get(url_env)
    if not url:
        raise ConfigurationError(missing)
    return JsonHttpClient(url, api_key or os.environ.get(key_env))


class JsonHttpClient:
    def __init__(
        self,
        url: str,
        api_key: str | None = None,
        *,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        host = _host(url)
        if host is None:
            raise ConfigurationError("an endpoint URL needs an http or https scheme and a host")
        self._url = url
        self.host = host
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        self._semaphore = threading.Semaphore(MAX_IN_FLIGHT)
        self._timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    @property
    def url(self) -> str:
        """The endpoint URL as given; messages name it by host only."""
        return self._url

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
                    response = send(self._url, timeout=self._timeout, **kwargs)
                except requests.RequestException as exc:
                    last_error = type(exc).__name__
                    if isinstance(exc, ValueError):  # a malformed URL or header: no retry mends it
                        raise ProviderUnavailable(f"{self.host}: {last_error}") from None
                else:
                    if response.status_code == 200:
                        try:
                            return response.json()
                        except ValueError as exc:
                            raise ProviderUnavailable(
                                f"{self.host}: response was not JSON: {exc}"
                            ) from exc
                    if response.status_code == 429 or response.status_code >= 500:
                        last_error = f"HTTP {response.status_code}"
                    else:
                        raise ProviderUnavailable(f"{self.host}: HTTP {response.status_code}")
                if attempt < MAX_RETRIES:
                    time.sleep(BACKOFF_BASE * (2**attempt))
            raise ProviderUnavailable(f"{self.host}: giving up after retries ({last_error})")
