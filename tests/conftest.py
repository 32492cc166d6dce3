import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

from nonresidue import arith  # noqa: E402


@pytest.fixture
def small_sieve_only(monkeypatch):
    """arith.primes_up_to, where prime_windows, is_prime, is_prime_array and
    factorize look it up, raises above arith._WINDOW, the most a walk may ask
    of the shared cache, so a search that sieves toward a far ceiling fails
    before it allocates; records each limit asked for."""
    asked = []
    primes_up_to = arith.primes_up_to

    def spy(n):
        asked.append(n)
        if n > arith._WINDOW:
            raise AssertionError(f"sieve to {n} requested")
        return primes_up_to(n)

    monkeypatch.setattr(arith, "primes_up_to", spy)
    return asked

