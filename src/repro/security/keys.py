"""From-scratch RSA: deterministic keygen, hash-then-sign, verify.

512-bit moduli (two 256-bit Miller–Rabin primes) keep keygen fast in the
simulator while exercising the real algebra. Key generation draws from a
caller-supplied ``random.Random`` so the whole security layer is
reproducible from the simulation seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional

_E = 65537
#: RSA modulus size of every generated key pair.
KEY_BITS = 512
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # Miller–Rabin with *rounds* random bases.
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if candidate % _E == 1:
            continue  # keep e coprime with p-1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """The shareable half: modulus and public exponent."""

    n: int
    e: int = _E

    def fingerprint(self) -> str:
        """Short stable identifier used in metadata and log lines."""
        digest = hashlib.sha256(f"{self.n}:{self.e}".encode()).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class KeyPair:
    """A principal's key pair. Only :attr:`public` ever leaves the owner."""

    public: PublicKey
    d: int  # private exponent

    def fingerprint(self) -> str:
        return self.public.fingerprint()


def generate_keypair(rng: random.Random) -> KeyPair:
    """Generate an RSA key pair with a ``KEY_BITS``-bit modulus."""
    half = KEY_BITS // 2
    p = _random_prime(half, rng)
    q = _random_prime(half, rng)
    while q == p:
        q = _random_prime(half, rng)
    n = p * q
    phi = (p - 1) * (q - 1)
    d = pow(_E, -1, phi)
    return KeyPair(public=PublicKey(n=n, e=_E), d=d)


def _digest_int(message: bytes, n: int) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % n


def sign(keypair: KeyPair, message: bytes) -> int:
    """RSA signature over SHA-256(message)."""
    h = _digest_int(message, keypair.public.n)
    return pow(h, keypair.d, keypair.public.n)


def verify(public: Optional[PublicKey], message: bytes, signature: int) -> bool:
    """True iff *signature* is *public*'s signature over *message*."""
    if public is None:
        return False
    h = _digest_int(message, public.n)
    return pow(signature, public.e, public.n) == h
