"""Same seed, same bits: sha256 digests of whole decodes over a small grid.

Each digest covers ``decode(...).to_dict()`` (tokens, every step trace with
its draft and target probabilities, and the call totals) for one model pair
and one sampling policy, at gamma 1 and 4 and seeds 0 and 1. A refactor or
fast path that keeps every output bit leaves them all equal; anything that
moves a token, a probability or a variate changes one.

To regenerate the table after a deliberate change of output, run
``PYTHONPATH=src python tests/test_decode_digests.py`` and paste what it
prints over ``DIGESTS``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from specdec.distmath import IDENTITY_POLICY, SamplingPolicy, normalize
from specdec.engine import SpecConfig, decode
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


def decode_digest(pair: str, policy: str) -> str:
    target, draft = PAIRS[pair]()
    sampling, lenience = POLICIES[policy]
    runs = [decode(target, draft, _PROMPT,
                   SpecConfig(gamma=gamma, policy=sampling, lenience=lenience, seed=seed,
                              max_new_tokens=40)).to_dict()
            for gamma in (1, 4) for seed in (0, 1)]
    return hashlib.sha256(json.dumps(runs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("pair", PAIRS)
def test_decode_digest_unchanged(pair, policy):
    assert decode_digest(pair, policy) == DIGESTS[f"{pair} {policy}"]


if __name__ == "__main__":
    for pair in PAIRS:
        for policy in POLICIES:
            print(f'    "{pair} {policy}": "{decode_digest(pair, policy)}",')
