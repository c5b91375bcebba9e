"""Golden outputs of the verbs whose text is rendered from their JSON payload.

Each entry is one ``diagdegen`` call, its exit code and the sha256 of its
stdout, for ``roots``, ``weyl``, ``orbits``, ``pn`` and ``gorenstein`` in
text and ``--json``.  They were recorded while each verb's text still read
the handler's own objects (the root system, the orbit lattice, the ``P^n``
components), before it was rendered from the payload alone.
"""

import hashlib

import pytest

from diagdegen.cli import run

GOLDEN = [
    (('roots', 'A1'), 0, "9f9f5685197d6019a43220ec44ca886c24304f0edda1c35e709c66e542b17cad"),
    (('roots', 'A3'), 0, "9629525a4b871d391f154d55a58f3905f1481597af30b5f85f4a4876fac3a689"),
    (('roots', 'B3'), 0, "d8d36329da488347335c6bc35a0d0bf375eddb721ec039e5d1b238675b0f9f02"),
    (('roots', 'C3'), 0, "57e750dc78daad9502f2cbdbab246f3a5dd589437861f8f6a33f7226fde9d3a6"),
    (('roots', 'G2'), 0, "945af61b1cedf45885786fa8d4c54458474cdaca5c9240e5653041368d1de914"),
    (('roots', 'F4'), 0, "9378f130559339937e2825634eef85f78354d11ad9ecb0372c15332fe42957a8"),
    (('roots', 'E6'), 0, "e2e73f8c87c884fc9c990532abf300ca9909f225c54891c66ba531f1663a2ea0"),
    (('roots', 'B2xA1'), 0, "7f125875b92ac30a95b71354d44115677c62154b19d1bbca025901049a8ca1f3"),
    (('roots', 'A2', '--json'), 0, "86044108cb7337e3491df85025b40d9d017ddf7203d0e426303e582a153af00c"),
    (('roots', 'D4', '--json'), 0, "73aa23d7fdeb2ddd794d4a7b5145a46ce86b40212e1a6b437cf717ee32adc534"),
    (('roots', 'G2xA1', '--json'), 0, "e6876a2bb613bd6ab50258f4d91df72d0108ff57e271c3dd9f62bf0cb0b141b0"),
    (('weyl', 'A3'), 0, "731542cc1ff2b0052c9042cbfaf4eeffdccaab4e95e5e4194ac6246c1f9286b2"),
    (('weyl', 'B3'), 0, "e96e84d29f90ea513ad74a270697abcba2159c3e535ea75138bd04e6129b93ec"),
    (('weyl', 'G2'), 0, "919860083e4a84cd4705ba1b1dea7fb4e67cb226fc5308d7c21cce245ce6bed0"),
    (('weyl', 'F4'), 0, "b6c18593f43fadff22d70c29be24c7f5d446381d19a7a656c7d661fdf24bfb51"),
    (('weyl', 'E7'), 0, "3a1d559a104f4f2a7af0ce6a750aca757f268697cc9ddeab346ab5744832a2c9"),
    (('weyl', 'A2xB2'), 0, "d85d6f1ae517e3eafada21a0613df07977fbb7af50e82ef3d331aae750436798"),
    (('weyl', 'C3', '--json'), 0, "2f3007a454f76be36308a2d4040ae676f5f326d28461c44e3d5c86b02aa4b585"),
    (('weyl', 'D5', '--json'), 0, "c31f21e5eb633e73b87bb971cdd43576aae683af1aed2b334317726baf9e1d4e"),
    (('weyl', 'E8', '--json'), 0, "98f6249c412a971f4614a4a18e56ca6c4e2cdb9f98195ac47de0c236726af1bb"),
    (('orbits', 'A2'), 0, "a6831be6422e0b11d1c0f475738ceba52b927c25c6a0cc3a778e56a1264ec393"),
    (('orbits', 'B3'), 0, "3e0f1705d7537a585dda5b303a1a79cdbf19ca3c3d87d5bfd640be42c602a5a1"),
    (('orbits', 'G2'), 0, "0ad66119a87916b851a675d5cf899183921e1da1064c211cad003aa354de071c"),
    (('orbits', 'D4'), 0, "593bce96a076443b1f78e1d68d1a257173b7a203365ce33694c5ec0986637209"),
    (('orbits', 'A2xA1'), 0, "853ed54f97ca6e78c6b1d8b27f91973e11ae6c943dd132da1049003ddc92da0f"),
    (('orbits', 'C3', '--json'), 0, "c6e96ca93388d43314cb1d7cba965ff9972b6f3b16f5f20e5094959c49c8c633"),
    (('orbits', 'F4', '--json'), 0, "54fae12407a5cb29db4f79759bf8c793837b47fc327be23f13d5188b1355ca85"),
    (('orbits', 'A1xA1xA1', '--json'), 0, "2245036708097e1225b02f881e9f411168ebce75a6fd9fdf1c6a559c97dc12bd"),
    (('pn', 'A1', '--J', ''), 0, "540a11fa17b3ef8cb3263b1eb631dedfec3de95cde246eb72fb467f7846c2681"),
    (('pn', 'A4', '--J', '2'), 0, "a751164aadcaa045dac0ba746cc029b03edac783fdb46ecac8ba9b7caac36566"),
    (('pn', 'A5', '--J', '1,3'), 0, "fb4be08afb9efc9a7ff3f9f3ea14e2c56791f239e5ef572fd84071890f6410e4"),
    (('pn', 'A7', '--J', '2,5,6'), 0, "002630726907783c9ad64a784b095417db84cdb9205454ff93ba7e6303787294"),
    (('pn', 'A3', '--J', '1', '--json'), 0, "55645c1e71ae3a7bead89f8f103b0d2cc6910c5ca0ba36722fa014818f9f9dc2"),
    (('pn', 'A6', '--J', '', '--json'), 0, "4797fe12e3ab89efe3497403ceaceb49a7a634280a9a798dabc453ec61eccead"),
    (('pn', 'A8', '--J', '1,2,4,8', '--json'), 0, "90e102d9015e412f8314d246b45138b9a0af546a7d9a5e4d215655d3a8fbd73d"),
    (('gorenstein', 'A6'), 0, "74ff21568629d5d6c36f426c37a2b089e4fa96c23766cb5bd20dc65d5b733cc0"),
    (('gorenstein', 'A1', '--variant', 'paper'), 0, "8fde0304c864149bf670820dfd63fc904f00e2ae5c214aa508c77277f39b1e84"),
    (('gorenstein', 'A3', '--variant', 'signed'), 0, "afd86fd03cedac285508d24d122a3114fd61c94724371b726c1db1d53097ec76"),
    (('gorenstein', 'A4', '--variant', 'signed'), 0, "7e86abd197e8dada9e0546298732cdb287367d7e32193924202be890782e9e8f"),
    (('gorenstein', 'A7', '--variant', 'signed'), 0, "bc85438656086812042532f4f44c2d945a9b3aa343db4c6e3db5e24e4cc6d9e8"),
    (('gorenstein', 'A8', '--variant', 'paper'), 0, "39f334cf321634efb65f3aad40c57016535f4c244a478df724428f29935ae5e5"),
    (('gorenstein', 'A2', '--variant', 'paper', '--json'), 0, "1ee39a3b531bba882425aa6f3803c0f8410988687392ec6ae3ff4f89c34fdb04"),
    (('gorenstein', 'A5', '--variant', 'signed', '--json'), 0, "a7b49b8ccc13c77cf0d9c83a93cb6027c3c7afad26e719f868b6d82d0fc0ef6d"),
    (('gorenstein', 'A9', '--variant', 'signed', '--json'), 0, "317c3453d6435ab12437961cb02751f8b7d0b229b9501bb196bd8a999953d703"),
    (('gorenstein', 'A11', '--json'), 0, "625d6121c6bf6e8fbaa9475d0dfedbf4e8ca406ab7a37ccfd9ecef3332d8b45c"),
    (('roots', 'A22'), 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('pn', 'B3', '--J', '1'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('gorenstein', 'D4'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    assert run(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
