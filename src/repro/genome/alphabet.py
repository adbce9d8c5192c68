"""Nucleotide alphabet: numeric encoding and vectorized sequence ops.

Sequences are stored as ``numpy.uint8`` arrays with A=0, C=1, G=2, T=3,
N=4.  The 0–3 codes are chosen so that complementation is ``3 - base``
(with N fixed), which keeps reverse-complement a two-op vectorized
expression — the aligner calls it per read.
"""

from __future__ import annotations

import numpy as np

BASE_A: int = 0
BASE_C: int = 1
BASE_G: int = 2
BASE_T: int = 3
BASE_N: int = 4

ALPHABET: str = "ACGTN"

# char code -> base code lookup (256 entries, invalid chars map to N)
_ENCODE_LUT = np.full(256, BASE_N, dtype=np.uint8)
for _i, _ch in enumerate(ALPHABET):
    _ENCODE_LUT[ord(_ch)] = _i
    _ENCODE_LUT[ord(_ch.lower())] = _i

_DECODE_LUT = np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)

# base code -> complement base code (N stays N)
_COMPLEMENT_LUT = np.array([BASE_T, BASE_G, BASE_C, BASE_A, BASE_N], dtype=np.uint8)


def encode(sequence: str | bytes | np.ndarray) -> np.ndarray:
    """Encode ASCII nucleotides to a uint8 code array.

    ``sequence`` is a string, bytes, or a uint8 array of ASCII codes.
    Lowercase (soft-masked) bases are accepted; any character outside
    ``ACGTacgt`` becomes ``N``.
    """
    if isinstance(sequence, np.ndarray):
        raw = sequence
    elif isinstance(sequence, str):
        raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    else:
        raw = np.frombuffer(bytes(sequence), dtype=np.uint8)
    return _ENCODE_LUT.take(raw)


def decode_bytes(codes: np.ndarray) -> np.ndarray:
    """Decode a uint8 code array to a uint8 array of ``ACGTN`` ASCII codes."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and int(codes.max()) > BASE_N:
        raise ValueError("code array contains values outside the ACGTN alphabet")
    return _DECODE_LUT.take(codes)


def decode(codes: np.ndarray) -> str:
    """Decode a uint8 code array back to an ``ACGTN`` string."""
    return decode_bytes(codes).tobytes().decode("ascii")


def complement(codes: np.ndarray) -> np.ndarray:
    """Vectorized complement (A<->T, C<->G, N->N)."""
    return _COMPLEMENT_LUT.take(np.asarray(codes, dtype=np.uint8))


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Vectorized reverse complement of a code array."""
    return complement(codes)[::-1]


def gc_content(codes: np.ndarray) -> float:
    """Fraction of called (non-N) bases that are G or C.

    Returns 0.0 for empty or all-N input rather than dividing by zero.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    called = codes != BASE_N
    n_called = int(called.sum())
    if n_called == 0:
        return 0.0
    gc = int(((codes == BASE_G) | (codes == BASE_C)).sum())
    return gc / n_called


def random_sequence(
    length: int,
    rng: np.random.Generator,
    *,
    gc: float = 0.41,
    n_fraction: float = 0.0,
) -> np.ndarray:
    """Draw a random sequence with target GC fraction (human genome ≈ 0.41).

    ``n_fraction`` sprinkles uncalled bases, mimicking assembly gaps.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    if not 0.0 <= gc <= 1.0:
        raise ValueError("gc must be within [0, 1]")
    at = (1.0 - gc) / 2.0
    probs = np.array([at, gc / 2.0, gc / 2.0, at])
    codes = rng.choice(4, size=length, p=probs).astype(np.uint8)
    if n_fraction > 0.0:
        mask = rng.random(length) < n_fraction
        codes[mask] = BASE_N
    return codes


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of mismatching positions between two equal-length code arrays."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int((a != b).sum())


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Pack every k-mer of a (N-free) sequence into an int64 rank.

    Used by the pseudo-aligner; windows containing N get rank -1.
    ``k`` must be ≤ 31 so the 2-bit packing fits an int64.
    """
    if not 1 <= k <= 31:
        raise ValueError("k must be in [1, 31]")
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    vals = codes.astype(np.int64)
    valid = codes != BASE_N
    # rolling polynomial in base 4 via a strided matmul-free scheme
    out = np.zeros(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    for j in range(k):
        out = out * 4 + np.clip(vals[j : j + n], 0, 3)
        ok &= valid[j : j + n]
    out[~ok] = -1
    return out
