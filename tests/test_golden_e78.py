"""Golden outputs for E7, E8 and the other calls past the old Weyl-order cap.

Each entry is one ``diagdegen`` call, its exit code and the sha256 of its
stdout.  Every call here used to exit 3, because root systems were refused
when |W| > 10**6 whatever the verb.  The hashes were recorded once the
walk of W^I agreed with the weight-orbit oracle on every small E6, E7 and
E8 quotient (``tests/test_cosets.py``); ``tests/test_golden.py`` pins the
calls that were admitted before.
"""

import hashlib

import pytest

from diagdegen.cli import run

GOLDEN = [
    (('roots', 'E8'), 0, "1eda1d54381c2a36a5539fee2813d9a9612ccb60bfbd0696366d36a9d07c4c5f"),
    (('roots', 'E7', '--json'), 0, "bf8829352dd3f6acc59d3e592ab7a7d73458505b03475995f8b08e0e03b5dbee"),
    (('orbits', 'E7', '--json'), 0, "d4263d1c58338a549bb01fc9ad5252f4d580486f0a0b13d603eacc742ff852cf"),
    (('weyl', 'E7'), 0, "3a1d559a104f4f2a7af0ce6a750aca757f268697cc9ddeab346ab5744832a2c9"),
    (('weyl', 'E8'), 0, "49cc4300fbbd671d7ef5493c7c814702470d8c9dfcd30529ee3112996ae54e3f"),
    (('weyl', 'E8', '--json'), 0, "98f6249c412a971f4614a4a18e56ca6c4e2cdb9f98195ac47de0c236726af1bb"),
    (('pn', 'A12', '--J', '1'), 0, "61515780fad2ef911259bbe6c39c9d73cbd94f6575bcad8ef6652ded30a7759d"),
    (('gorenstein', 'A9'), 0, "690d57b29a026271a5b5285dbc3a7dac35131f1180902f47a909ca486052fc9b"),
    (('cosets', 'E7', '--I', '1,2,3,4,5,6'), 0, "993fb1dcbfa95d7bccc93722f5d86cafe0af73d7c9200d07e1f8db7d3bc7d67f"),
    (('cosets', 'E8', '--I', '1,2,3,4,5,6,7', '--json'), 0, "76f3516bb95ff0ace838aef0cbb017362dfc7753eb771a6454a571135cc109d4"),
    (('degen', 'E7', '--I', '1,2,3,4,5,6', '--J', '2,4', '--json'), 0, "1593591073bee8791a05c045ed82962a9ea9123e3acec387973fe77badc8e1c2"),
    (('degen', 'E8', '--I', '2,3,4,5,6,7,8', '--J', '1'), 0, "c3d891cb34b32be9a7660cf80be712602fabec33245dffe1032c6c730657b5b9"),
    (('cosets', 'E8', '--I', ''), 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('roots', 'A22'), 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    assert run(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
