"""Same seed, same bits: sha256 digests of whole decodes over a small grid.

Each digest covers ``decode(...).to_dict()`` (tokens, every step trace with
its draft and target probabilities, and the call totals) for one model pair
and one sampling policy, at gamma 1 and 4 and seeds 0 and 1. A refactor or
fast path that keeps every output bit leaves them all equal; anything that
moves a token, a probability or a variate changes one. ``STANDARD_DIGESTS``
does the same for ``standard_decode`` of each pair's target, and the
``*_STOP_DIGESTS`` tables repeat both grids with a stop token that occurs
early: the fourth token the same run emits without one.

To regenerate the tables after a deliberate change of output, run
``PYTHONPATH=src python tests/test_decode_digests.py`` and paste what it
prints over them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from specdec.distmath import IDENTITY_POLICY, SamplingPolicy, normalize
from specdec.engine import SpecConfig, decode, standard_decode
from specdec.models import CopyModel, StatelessModel, train_ngram
from specdec.rng import RandomStream

_V = 8
_CORPUS = [int(u * _V) for u in RandomStream(7).uniform_block(600)]
# A passage, some noise, then the passage's start again: the copy draft has
# something to copy from the first step on.
_PROMPT = _CORPUS[:20] + _CORPUS[100:105] + _CORPUS[:6]

PAIRS = {
    "ngram2/1": lambda: (train_ngram(_CORPUS, 2, _V), train_ngram(_CORPUS[300:], 1, _V)),
    "ngram3/2": lambda: (train_ngram(_CORPUS, 3, _V), train_ngram(_CORPUS[300:], 2, _V)),
    "copy": lambda: (train_ngram(_CORPUS, 3, _V), CopyModel(_V)),
    "stateless": lambda: tuple(StatelessModel(normalize(RandomStream(seed).uniform_block(_V)).probs)
                               for seed in (8, 9)),
}
POLICIES = {
    "identity": (IDENTITY_POLICY, 1.0),
    "nucleus": (SamplingPolicy(top_p=0.8), 1.0),
    "top-k": (SamplingPolicy(top_k=3), 1.0),
    "argmax": (SamplingPolicy(argmax=True), 1.0),
    "argmax-lenient": (SamplingPolicy(argmax=True), 0.5),
}

DIGESTS = {
    "ngram2/1 identity": "3763e74594096481180425a2176f5ee82ef629cafcfa05bca40cefe57b0e3b3b",
    "ngram2/1 nucleus": "58eaa2d02035ecb7af0542eb87729319e0ad721aa560e7e005d469ca3bdff2d9",
    "ngram2/1 top-k": "dbb51edf8faa1830ccc655f7eb9fc8de156bd74c3c6ec879442189de08cbc0ca",
    "ngram2/1 argmax": "3fa8741fb2892c8fa7a1613732a01657f351520efb490dabd6381c4c5e7c57fe",
    "ngram2/1 argmax-lenient": "16406bafdc31dbb88b20d21c02e831195352952c80b972ba5750d2223a0046fd",
    "ngram3/2 identity": "e2c7e11f57b1c237119e3458ee80aa9480727414ff4ba79fceeaa57a10f7f797",
    "ngram3/2 nucleus": "1e07fa20d7c58dbbbb706d455c986572d25778178469e4dfecb59f86ab7e5b85",
    "ngram3/2 top-k": "2710ec91684dc4130b7f886e1f632cce22a8ac9152461db3a6a5df8dd7116575",
    "ngram3/2 argmax": "a9490eb5138c5b6e14e1b7732967ffeed69c3278e2eef5e4331584a9afae785d",
    "ngram3/2 argmax-lenient": "cb9a94349a841a4a055797c08f98fb6767c29fded7879bcbfe27618fc3bc2863",
    "copy identity": "fe0250ba4f0c8be181211e9a7ca112d6a8f0fb765277a06c644c7ce58a171606",
    "copy nucleus": "6aa48d04d9d0b353153a0b2a20428170ef7e6e225ad2ed984ce1188152c120cf",
    "copy top-k": "2ea9c5e4c97cab136ecc926fdbc9a41a0493163879fe1dd86662d776c7a2ad60",
    "copy argmax": "d28e7dfc49cc4cb994895bf993670691f1dcf0f462e1496e4effd368a823d6ca",
    "copy argmax-lenient": "38913eb2ab81307379717a53346bcc3f0605e2874a61ba36fbdd589ad1155db4",
    "stateless identity": "760d2b559ccb6e98927776785657974d84a2a622c4b97839811fda0750cb38d2",
    "stateless nucleus": "6939517dd25441b1d2f6b9152da3d654b3713e6c5fa3a512988ab8424ce4d4c2",
    "stateless top-k": "b40c0729f8029224e5d40722ca8f66f6ee9e269ea9920f1f85afe06ca8d2e214",
    "stateless argmax": "362df7ecb32dc46cb86ee753d45a0c5c29baa45ec6a005f05296c60188936b50",
    "stateless argmax-lenient": "48368fc925551036d3736d0c7895ac1c5c065244b891505521f2e0a02577f002",
}

DECODE_STOP_DIGESTS = {
    "ngram2/1 identity": "8d114a27e424b092ca2218ee20f81046496561e3622d8c12c64cde78f634c9cd",
    "ngram2/1 nucleus": "16778e4b1f0a84deb80ac6ddec963e27885fa60f020dfc4fe4e6314858406cb3",
    "ngram2/1 top-k": "bb7f71c0adc188c3ba71d186adfe651e00657d68a0f19b8877b81a3515389ee6",
    "ngram2/1 argmax": "a75114545c3b45294947e2d9536066567e8177851eda3205c261f4670f3f6ea4",
    "ngram2/1 argmax-lenient": "c44946faf45f138a8a779c5573b793d374bfcd8b1bcd31f497043c641ad63256",
    "ngram3/2 identity": "ea16ce0e8993126fd429f688e8120ecbc2cd1c4290c191508335ec16ec03c407",
    "ngram3/2 nucleus": "35f7d10bb800034b1f7e9e9d8fabc8223025ce1004c14f3bf54335f41a74ab28",
    "ngram3/2 top-k": "4a03ae105b80ef736e7a8a685735d0c9341fbb2452f70e12a5fdb2243e71564c",
    "ngram3/2 argmax": "bea2a0ac483594cf3afd43b7b8d7fff9dcb355a32624b345485e3254355805a1",
    "ngram3/2 argmax-lenient": "73c08b3f5a55881bb23fbbacacebe53c11a4755c066e1adf6fc238122cbb1b7a",
    "copy identity": "f815eca1b02d1287d02ce68a51fe5c7b6fa91a5240da730058a9e7e811888479",
    "copy nucleus": "653e199836ca75639462f54036b26b0779b16f8a3e6792e668627023b46dce0b",
    "copy top-k": "04b1f4a03f43b55b8a5a4b71b39d23580a79a99a71cc01d2d16b822c3a2826eb",
    "copy argmax": "4f1746d35786963e396c7aec1f0338352932acb1f8a410bd7fd29c5ef758d9fc",
    "copy argmax-lenient": "b587148fc956c8557e89e30e369e18697463f7c8f4f6f07e9ee82aa8e4e1d45a",
    "stateless identity": "fa94b63c37f62b03da40abcacc5c9680f6fb0b7fc9e08e90ef956e37768bce88",
    "stateless nucleus": "6dc9e80ad9a6c760f9f8caf71c3d1f265dd9a66a666c7ef84b54cbb159f17ea0",
    "stateless top-k": "d7dd989ca0f1c9cffade6995060e2a98f4e250f509d1081e9cd46e46dab25737",
    "stateless argmax": "aad8a2b86bc89938bbfe81461ea0e620a742e6d5b67749f34b0fdf547fdca1f8",
    "stateless argmax-lenient": "2b84fc4f6274b671fbffe4fdd2aa8b0d758a79d45cf4565d9258a31255d1a453",
}

STANDARD_DIGESTS = {
    "ngram2/1 identity": "0874ab50ed21f408f66258f1d247448c293ab1571496553cbcdc0d1f71a74aad",
    "ngram2/1 nucleus": "326a06165aeac4b7a1deeb6c833e5c2afc46e95e9c919410169857ecab24dbc1",
    "ngram2/1 top-k": "c20dbb463e9e28984c28119f6786d9e9baba081f6f95d28cbcc2d1eda240c1f3",
    "ngram2/1 argmax": "dcbaae81c88132b8606630b740cf7d57ff070238068467fae78612c67bc25d70",
    "ngram2/1 argmax-lenient": "dcbaae81c88132b8606630b740cf7d57ff070238068467fae78612c67bc25d70",
    "ngram3/2 identity": "be9e552eb03d6d0172d22111300eff93e8799b9be4860232f7f89588446fa468",
    "ngram3/2 nucleus": "1bc5b89b78f4471b35ae261615371fde9eff6b19fffedb35b73c8e9c3928f151",
    "ngram3/2 top-k": "1d0cae249de16ddd011753f0593290ab123b6d5f13070a23058db49031452687",
    "ngram3/2 argmax": "b5196d3047e812e337b20d55c02711a4b3936a1c0fb777a3613b17695c5e985d",
    "ngram3/2 argmax-lenient": "b5196d3047e812e337b20d55c02711a4b3936a1c0fb777a3613b17695c5e985d",
    "copy identity": "be9e552eb03d6d0172d22111300eff93e8799b9be4860232f7f89588446fa468",
    "copy nucleus": "1bc5b89b78f4471b35ae261615371fde9eff6b19fffedb35b73c8e9c3928f151",
    "copy top-k": "1d0cae249de16ddd011753f0593290ab123b6d5f13070a23058db49031452687",
    "copy argmax": "b5196d3047e812e337b20d55c02711a4b3936a1c0fb777a3613b17695c5e985d",
    "copy argmax-lenient": "b5196d3047e812e337b20d55c02711a4b3936a1c0fb777a3613b17695c5e985d",
    "stateless identity": "9b4bc48c1dce61a110a4c4c2ffd3f7d20ee146867d8d9f8513381a22933fa793",
    "stateless nucleus": "afe5b78992d132274af4cfeca53f284aba2ae90757ead21b20a6a294a64b6f8b",
    "stateless top-k": "eb62fcdb755fc88827f17ba5ca42b3ffbfc8d14f1c5172fb77b5158400a67b5b",
    "stateless argmax": "161613a87fbecfb448c47999278d7c54be3fea75f5cbca6711f7c959ae2fdbd8",
    "stateless argmax-lenient": "161613a87fbecfb448c47999278d7c54be3fea75f5cbca6711f7c959ae2fdbd8",
}

STANDARD_STOP_DIGESTS = {
    "ngram2/1 identity": "f16ded8a11d8ca6e967bca5b992b62794d43de6a00f173157515f5644fc42e31",
    "ngram2/1 nucleus": "b58d19e90c0f9957b1a33b1cd0c18fb81a4cadbb18756129473b1dd5aca79de9",
    "ngram2/1 top-k": "838f6db5b4a7cecfa3e70cfca24a442427aa0e5e9a5f58dc7f533c74991e4c55",
    "ngram2/1 argmax": "7b1adb45abdff7ebc567d064838546bb1b0bd0af9c5964d4e737017b95e34a3c",
    "ngram2/1 argmax-lenient": "7b1adb45abdff7ebc567d064838546bb1b0bd0af9c5964d4e737017b95e34a3c",
    "ngram3/2 identity": "7572862db4161be44514bcb293416eaf402d953327262eb3679b6bb1112ef7ca",
    "ngram3/2 nucleus": "d21ce761201dd2b00216a76a937b534590cdcdc19c7d34c66b5c11b4f22a3ba4",
    "ngram3/2 top-k": "8303cb3e9e4b6a8964db3817e51130878a08ce30028a553460a8de337b9a65de",
    "ngram3/2 argmax": "1281f888e33d7f34263128f75af614f1665df52af4e76d9b649356386ab145e5",
    "ngram3/2 argmax-lenient": "1281f888e33d7f34263128f75af614f1665df52af4e76d9b649356386ab145e5",
    "copy identity": "7572862db4161be44514bcb293416eaf402d953327262eb3679b6bb1112ef7ca",
    "copy nucleus": "d21ce761201dd2b00216a76a937b534590cdcdc19c7d34c66b5c11b4f22a3ba4",
    "copy top-k": "8303cb3e9e4b6a8964db3817e51130878a08ce30028a553460a8de337b9a65de",
    "copy argmax": "1281f888e33d7f34263128f75af614f1665df52af4e76d9b649356386ab145e5",
    "copy argmax-lenient": "1281f888e33d7f34263128f75af614f1665df52af4e76d9b649356386ab145e5",
    "stateless identity": "62539f5b92deb75a43d572fbd4e23f3e3b643d7c54bcdbb091c58d9e9a8c241e",
    "stateless nucleus": "fcc50e7943037d85a52f734081bb2812362cb6660b47d10811efbc7a17f891ab",
    "stateless top-k": "af70b7b2b3f324fea355d982e69b20a8fffd06225f7237e03d91a075ac6b803f",
    "stateless argmax": "d6cb38d55c954eca62406f05f517df40a18251f8385dddbce33873c17072d13c",
    "stateless argmax-lenient": "d6cb38d55c954eca62406f05f517df40a18251f8385dddbce33873c17072d13c",
}


DECODERS = {
    "decode": lambda target, draft, config: decode(target, draft, _PROMPT, config),
    "standard": lambda target, draft, config: standard_decode(target, _PROMPT, config),
}


def decode_digest(pair: str, policy: str, decoder: str = "decode", stop: bool = False) -> str:
    target, draft = PAIRS[pair]()
    sampling, lenience = POLICIES[policy]
    runs = []
    for gamma in (1, 4):
        for seed in (0, 1):
            config = SpecConfig(gamma=gamma, policy=sampling, lenience=lenience, seed=seed,
                                max_new_tokens=40)
            result = DECODERS[decoder](target, draft, config)
            if stop:
                config = replace(config, stop_token=result.tokens[3])
                result = DECODERS[decoder](target, draft, config)
            runs.append(result.to_dict())
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


TABLES = {  # (decoder, stop) -> digests by "pair policy"
    ("decode", False): DIGESTS,
    ("decode", True): DECODE_STOP_DIGESTS,
    ("standard", False): STANDARD_DIGESTS,
    ("standard", True): STANDARD_STOP_DIGESTS,
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("pair", PAIRS)
def test_decode_digest_unchanged(pair, policy):
    assert decode_digest(pair, policy) == DIGESTS[f"{pair} {policy}"]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("pair", PAIRS)
@pytest.mark.parametrize("decoder, stop", [("decode", True), ("standard", False),
                                           ("standard", True)])
def test_other_digests_unchanged(decoder, stop, pair, policy):
    assert decode_digest(pair, policy, decoder, stop) == TABLES[decoder, stop][f"{pair} {policy}"]


def test_stop_token_cuts_early():
    # The stop column must exercise the cut: every stopped run ends at its
    # stop token, within the first four tokens.
    target, draft = PAIRS["ngram3/2"]()
    config = SpecConfig(gamma=4, seed=0, max_new_tokens=40)
    for decoder in DECODERS.values():
        tokens = decoder(target, draft, config).tokens
        stopped = decoder(target, draft, replace(config, stop_token=tokens[3])).tokens
        assert len(stopped) <= 4 and stopped[-1] == tokens[3] and stopped == tokens[:len(stopped)]


if __name__ == "__main__":
    names = {"DIGESTS": ("decode", False), "DECODE_STOP_DIGESTS": ("decode", True),
             "STANDARD_DIGESTS": ("standard", False), "STANDARD_STOP_DIGESTS": ("standard", True)}
    for name, (decoder, stop) in names.items():
        print(f"{name} = {{")
        for pair in PAIRS:
            for policy in POLICIES:
                print(f'    "{pair} {policy}": "{decode_digest(pair, policy, decoder, stop)}",')
        print("}")
