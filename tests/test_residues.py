import random
import re

import pytest

from minadd.errors import MinaddError
from minadd.residues import ResidueSubset, mask_members, reverse, rotate


def test_of_and_members():
    s = ResidueSubset.of(5, [2, 3])
    assert s.members() == (2, 3)
    assert 2 in s and 3 in s and 0 not in s
    assert len(s) == 2


def test_out_of_range_rejected():
    with pytest.raises(MinaddError, match=re.escape("residue 5 not in [0, 5)")):
        ResidueSubset.of(5, [5])
    with pytest.raises(MinaddError, match=re.escape("residue -1 not in [0, 3)")):
        ResidueSubset.of(3, [-1])


def test_residue_beyond_an_index_rejected():
    # bit 10**20 fits no index, so the mask fails before it allocates
    with pytest.raises(MinaddError,
                       match=f"residue {10**20} is too large to hold as a bit") as exc:
        ResidueSubset.of(10**21, [0, 10**20])
    assert isinstance(exc.value.__cause__, OverflowError)


def test_complement_and_full():
    s = ResidueSubset.of(4, [0, 2])
    assert s.complement().members() == (1, 3)
    assert ResidueSubset(4, (1 << 4) - 1).is_full()
    assert s.union(s.complement()).is_full()


def test_sumset():
    a = ResidueSubset.of(3, [0, 2])
    b = ResidueSubset.of(3, [0, 1])
    assert a.sumset(b).members() == (0, 1, 2)
    empty = ResidueSubset(3, 0)
    assert a.sumset(empty).members() == ()


def test_sumset_modulus_mismatch():
    with pytest.raises(MinaddError, match="moduli differ: 3 vs 4"):
        ResidueSubset.of(3, [0]).sumset(ResidueSubset.of(4, [0]))


def test_shifted_rotation():
    mask = ResidueSubset.of(5, [0, 4]).mask
    assert mask_members(rotate(mask, 1, 5)) == (0, 1)
    assert mask_members(rotate(mask, -1, 5)) == (3, 4)
    assert rotate(mask, 5, 5) == mask


@pytest.mark.parametrize("mask,expected", [(0, ()), (0b1011, (0, 1, 3))])
def test_mask_members(mask, expected):
    assert mask_members(mask) == expected


def test_rotate_matches_member_arithmetic():
    for modulus in (1, 2, 7):
        for mask in range(1 << modulus):
            for k in range(-3, modulus + 3):
                got = mask_members(rotate(mask, k, modulus))
                want = tuple(sorted({(r + k) % modulus for r in mask_members(mask)}))
                assert got == want


def test_members_matches_mask_members():
    rng = random.Random(3)
    for modulus in (1, 2, 63, 64, 65, 200):
        for mask in (0, (1 << modulus) - 1, 1 << (modulus - 1),
                     *(rng.getrandbits(modulus) for _ in range(50))):
            assert ResidueSubset(modulus, mask).members() == mask_members(mask)


def test_reverse_matches_string_reversal():
    # the reference writes the width-bit row as a string of width
    # characters and reads it back reversed
    rng = random.Random(7)
    for width in range(1, 131):
        for mask in (0, (1 << width) - 1, 1 << (width - 1),
                     *(rng.getrandbits(width) for _ in range(20))):
            want = int(bin(mask)[2:].zfill(width)[::-1], 2)
            assert reverse(mask, width) == want
