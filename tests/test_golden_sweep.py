"""Golden sweep reports: ``diagdegen sweep T --json`` reproduces recorded stdout.

Each entry is a Dynkin type of ``scripts/run_sweep.py``'s original defaults
and the sha256 of the stdout of ``diagdegen sweep T --json``, recorded
before the sweep read its checks from one walk and one coset labelling
per I.  A change to the sweep's checks, case counts or key order shows
here as a changed digest.  D5, the smallest default no entry pinned, was
added later, its digest recorded before ``WeylGroup.bruhat_rows`` came to
relabel each row as a whole rather than bit by bit.
"""

import hashlib

import pytest

from diagdegen.cli import run

GOLDEN = [
    ("A1", "d33f203104f2515adfb49c15fb2eb544847987d4836d2aee1f7c598060c469c1"),
    ("A2", "cab72d5e1a9d95499acf2c246ead4da769f8dbc90bfc5813a223763158f90965"),
    ("A3", "624bb3cdc08a1e27be087fbf282974d85f493e0ac6ec38e26e60a1764b7752e5"),
    ("A4", "3439e99a7e0a97f60e81d6a7667f316272f0a3f34659f80ad53483da01710abe"),
    ("B2", "007a1fd469ace69f631818babfd8bedcbff8f0267623177b02e865544fecaaa2"),
    ("B3", "a44617461155265ba019e1b37c8959106aa6fd64da783fbf25d9d5eb50c97b44"),
    ("C3", "fb1b8a72e70548c0f770dee5292d8f0e56af2636c4ede2f40950c25602d3195c"),
    ("D4", "c74c7e1536af0b9edfeda9752cff76a316b8396f6e82f2183f861db3dd01cf28"),
    ("G2", "532f0cee9c88881c413aa533a605fc9d825bea0af53200ee82af2c42226b42d1"),
    ("A2xA1", "b7a5780cac41c336db80ccaee38bd1ce64f84e307d0cac6217d5a8413c720836"),
    ("B4", "ecdb6a1ae534c41c885b19a511b1b7e539b7052ca549526360545ece78ef07cd"),
    ("A5", "4cf1d4cb05ad5456c3fed67978990cb8280106b6abc7eeee6e5e87fa4a9e74d6"),
    ("F4", "bd2c2428e16dfb4df3a8a3b660a3006179767ed7b18d81f119517d7529f10295"),
    ("D5", "4b3bddf32cb84bda59ab79c42307a7ae7ce756c9fd369777f96fb920dd77639e"),
]


@pytest.mark.parametrize("type_str,digest", GOLDEN, ids=[t for t, _ in GOLDEN])
def test_sweep_json_matches_golden(capsys, type_str, digest):
    assert run(["sweep", type_str, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
