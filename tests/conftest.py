"""Shared fixtures: a session-wide group cache and the desk-scale type lists."""

import pytest

from diagdegen import build_root_system, generate
from diagdegen.rootsys import all_subsets

# Types swept exhaustively over every faithful I and every J.
SWEEP_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]

# Types for the Bruhat differential test; all have |W| <= 1152.
BRUHAT_TYPES = SWEEP_TYPES + ["B4", "A5", "A2xA1", "F4"]


def faithful_subsets(rs):
    return [I for I in all_subsets(rs.rank) if rs.is_faithful(I)]


def from_word(g, word):
    """Element id of the product s_{word[0]} ... s_{word[-1]}."""
    w = 0
    for i in word:
        w = g.gen_table[w][i - 1]
    return w


@pytest.fixture(scope="session")
def groups():
    cache = {}

    def get(type_str):
        if type_str not in cache:
            cache[type_str] = generate(build_root_system(type_str))
        return cache[type_str]

    return get
