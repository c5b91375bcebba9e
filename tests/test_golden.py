"""Golden outputs: the catalogue verbs reproduce recorded stdout byte for byte.

Each entry is one ``diagdegen`` call, its exit code and the sha256 of its
stdout, recorded from the full-``W`` implementation of ``cosets``,
``degen`` and ``flagdegen`` before the catalogue moved to the quotient
walk.  The determinism tests in ``test_cli.py`` check that output repeats;
these check that it matches a fixed reference.
"""

import hashlib

import pytest

from diagdegen.cli import run

GOLDEN = [
    (('cosets', 'A3', '--I', '2,3'), 0, "2270d4630e20809a880ace5da8299d2542a78b9b95dc1693699989a596f98659"),
    (('cosets', 'A3', '--I', '1,3', '--json'), 0, "3e8de34419f1dfd75b29efd61fe77f99f5d285062049141667ab84edfa203681"),
    (('degen', 'A3', '--I', '2', '--J', '1,3'), 0, "b1c60738c2446b709483e1b11d256cd7dad9f261966475ba5197f532a21a5908"),
    (('degen', 'A3', '--I', '1,3', '--J', '2', '--json'), 0, "d36ef6f5556caefd2655ff1d9a43b790a20c9a6ec4c343a6a851a4e9330ddc3a"),
    (('flagdegen', 'A3', '--J', '2'), 0, "33ae5cf60103d965eb0a9e02f19df7c54ad415f8618afaf348732f3c4015e917"),
    (('flagdegen', 'A3', '--J', '1,3', '--json'), 0, "6dba3a9c24c184980caa7e8cec5b0499be8616e1e26110086c67468355554ef6"),
    (('cosets', 'B3', '--I', '1,2'), 0, "809d464045058c6c738c0227b16c51f75196fa2de1cf93cfdb0dbef974746498"),
    (('cosets', 'B3', '--I', '2,3', '--json'), 0, "ee7569967f7bd70737e636b56aca61ab4beb816013892f530f5b89f59e411d41"),
    (('degen', 'B3', '--I', '2,3', '--J', '1'), 0, "ba9f1d57ab4129cee96de80f47fd88d5365f6f8bb0464a03e17b430d28af6b5a"),
    (('degen', 'B3', '--I', '1,2', '--J', '3', '--json'), 0, "a2f9479b71ced09148c5ef39a60c35916ac98960bf7d82256f93a7a3d8d1aa9f"),
    (('flagdegen', 'B3', '--J', '1'), 0, "4d25b79637c7856a9567c0d20a96a8ac83a2381b2c60d63be9bab6fc5c7801bd"),
    (('flagdegen', 'B3', '--J', '2,3', '--json'), 0, "a807b82cfcf08ea10982ac3ff5e9fb7d8acb51f6b243272452f31ce4e59771fb"),
    (('cosets', 'C3', '--I', '1,2'), 0, "a0c24a0138ea426e8d38ed5c43b4f78c1117a2fad1a68533cd2278767cb85e24"),
    (('cosets', 'C3', '--I', '2', '--json'), 0, "8cef605d7701ee77b8dedf22c61349d6d14e1184bd8ccfb935f82b35679d7f58"),
    (('degen', 'C3', '--I', '1', '--J', '2,3'), 0, "9abaa6f49ada3bb8aa30cc84c8f0e4970e8fb62a5ab069db837bab927ca2c5e8"),
    (('degen', 'C3', '--I', '1,2', '--J', '', '--json'), 0, "15cc37fea12629631f3f434f11dbaef0c901ae1c996e3df69cbec5b9e7c26368"),
    (('flagdegen', 'C3', '--J', '3'), 0, "2041c9e8153711f21bf709baa50f82d451a1e91174f5928cfa2e58f152ecbf27"),
    (('flagdegen', 'C3', '--J', '1,2', '--json'), 0, "63478877abf6db5e9ce8f84c9559c7e2ee34d058bf0a69126b17891f4ca31707"),
    (('cosets', 'G2', '--I', '1'), 0, "5c1be8edf82950eae2fde4d4e34a4af325c7eed6f1247d1fd54e1ca728955817"),
    (('cosets', 'G2', '--I', '2', '--json'), 0, "f3e4c47450276b00445814b330cd54359bcdc09ddc70c060105ada826415cebb"),
    (('degen', 'G2', '--I', '2', '--J', '1'), 0, "3fb374e962e7227cfccca101d288122e8e5256d64f427e413cc2d9767a1cd186"),
    (('degen', 'G2', '--I', '1', '--J', '2', '--json'), 0, "b08e5d592b48c4ea3a879f7bac8260cb3c29acd5ffe954add92d97105c99fd3f"),
    (('flagdegen', 'G2', '--J', '1'), 0, "ecbe5140abc0f07dd27d29dffa5845318f74b89ccd5d755bd6f799baa89e4e86"),
    (('flagdegen', 'G2', '--J', '', '--json'), 0, "c68b103d0d33f67cabe2301f32358890caacd904170763f69f661dbe4c097190"),
    (('cosets', 'B2xA1', '--I', '1,3'), 0, "82156326b46d3c55668068aaf0e6142706f14128bebe433953b23e1c33e0fc74"),
    (('cosets', 'B2xA1', '--I', '2', '--json'), 0, "e05731fbf2252911e57ca3b1f4fb2f6b58115f2334433993da649f734a67d229"),
    (('degen', 'B2xA1', '--I', '2', '--J', '1,3'), 0, "f037fa1b0a874110de3ddaee6b1944b9528fc84bef12fefb81084b7b096914aa"),
    (('degen', 'B2xA1', '--I', '1', '--J', '2', '--json'), 0, "a9319ce0de658c9ba29d97d11ace1c6e76994b4303be3bc141e781d2f1b8ea63"),
    (('flagdegen', 'B2xA1', '--J', '2,3'), 0, "81d86213387f9e3f79f8a028a57eb1827e3cd5e53ee628abdb21ccf0228ce64e"),
    (('flagdegen', 'B2xA1', '--J', '1', '--json'), 0, "293c045be586a9b08d92e0c7ea106deadf9b668791253fc1ca215ac3e7c9e0fa"),
    (('cosets', 'D4', '--I', '1,3,4'), 0, "53fdb525dec8fcd3b151c5a580922c321548d417c1dc0ae2654b2dfcc8387405"),
    (('cosets', 'D4', '--I', '2', '--json'), 0, "9203b8ec3a555995837ba3ee82f9ff3dff836421b1b2fc27597164cef80b7447"),
    (('degen', 'D4', '--I', '1,3,4', '--J', '2'), 0, "315a2fe576d2ec4711d8747f4ad5f1d0d434f5f812a61181f65af3d589f9e0d5"),
    (('degen', 'D4', '--I', '2', '--J', '1,4', '--json'), 0, "2635916ff113bab582e83310a400bfced096fbbcdab7de7da99e61a496ecf3c1"),
    (('flagdegen', 'D4', '--J', '2'), 0, "389b95de36982560796676f58606933e052027a1e0226a64214746647ae73261"),
    (('flagdegen', 'D4', '--J', '1,3,4', '--json'), 0, "969c1db8d82fdc491dcc3c40fd8014b32fee2f4f496aa5f2868e352045bb0961"),
    (('cosets', 'F4', '--I', '2,3,4'), 0, "89e652e41940e40b9aa8c6358b42ede1001fd385094c8c31ac1570ad1b9e59d7"),
    (('cosets', 'F4', '--I', '1,2,3', '--json'), 0, "e28c2403ad51b7305e3d7f795c68eb816d0d1a91084bdf8d2e1bd53b448c096b"),
    (('degen', 'F4', '--I', '1,2,3', '--J', '2,4'), 0, "ddaebaaf944255dd5547316c484eabbca970973fe583dc6c48f3335b4bcb3651"),
    (('degen', 'F4', '--I', '2,3', '--J', '1,4', '--json'), 0, "020d45831442780cde9a1cf01c4f4e991a985599bd40c9c2884d5ac39a545510"),
    (('flagdegen', 'F4', '--J', '3'), 0, "53a967df4d8f81f23d69682458c5e1c0439b4e35ae86b2f47cefb5f20f8bc2ef"),
    (('flagdegen', 'F4', '--J', '1,2', '--json'), 0, "ceb577ecf9b4c7ebb6674db0bdefe5c2f3b572a22982463c5e807bee25fef941"),
    (('cosets', 'E6', '--I', '2,3,4,5,6'), 0, "db75f32bfe4bd54d48f699aeff8be48ffa0d0bddace905eda45c7c239fae3207"),
    (('degen', 'E6', '--I', '1,2,3,4,5', '--J', '2,4', '--json'), 0, "ab48db41955c3022fa46b2b003b2cde5a03ddfff131af7191ca18b3966dc7b9a"),
    (('degen', 'B3', '--I', '1,2,3', '--J', '1'), 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('cosets', 'A3', '--I', '4'), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    assert run(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
