"""Deterministic primality testing for unsigned 64-bit integers."""

# Sorted base set; Miller-Rabin with these witnesses is deterministic for
# every n < 3_317_044_064_679_887_385_961_981 (covers the full 64-bit range).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_LIMIT = 1 << 64


def is_prime_64(n: int) -> bool:
    """Exact primality for 0 <= n < 2^64 (deterministic Miller-Rabin bases)."""
    if n < 0 or n >= _LIMIT:
        raise ValueError(f"n must lie in [0, 2^64), got {n}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
