import hashlib
import json

import pytest

from kslab.instances import SplitMix64, random_partial_ktree
from kslab.metric_core import graph_to_json
from kslab.tree_decomp import verify_decomposition

# (N, width, max_weight, drop_prob_percent, seed), sha256 of graph_to_json(g),
# sha256 of the canonical JSON of td.to_json(); recorded with the generator
# that searched the whole graph from vertex 0 for every candidate drop
GENERATOR_PINS = [
    ((5, 1, 1, 30, 0),
     "997da09012b6b492573b8d8813a8a26c12ede42349f04bc79b42e9e30585ed26",
     "81eafa7e0a3d7811bafcb17a2cc1ccaff3bc10567bd7981b14926f448d819897"),
    ((5, 4, 1, 100, 13),
     "ad844b610de938405916ece5053e070fa270e2da41d85c570d00430c4ef220a2",
     "b641f01488cf7f68d0e653a6e4b94e383066e0fa9f40a7a9928f0180e83e5e3e"),
    ((12, 1, 9, 0, 1),
     "8798ed02ef11e94b236dff5230b960e17b9c7720fe14407377d4d5793a1de7b6",
     "d07f2cbbb238483958fc9c177a17ec4fcd3cc4d893ba9fcbb2cc38994ee80e00"),
    ((30, 2, 1, 30, 2),
     "d2df372f9c2346ce3e910b4cb55fe246130d171bc95e8a1c58f04b4de5c9e6ed",
     "970c1fb35c82e9bf2335a4d0549af751fd054d6e41a3019070d7edf1474f5c21"),
    ((30, 2, 9, 100, 3),
     "1736207058e5a390bebfbcf62c4fa347b24d75f96a17c291346e50bed768c207",
     "69db5da0e6eafc70b9090bc42322f8e675b4a949556e212e42ee5ee93ce229de"),
    ((60, 3, 1, 30, 4),
     "0534f0e76ed6e81682ee9528fcb08f77ef345d4ec80234cc4fad70cc7e90404f",
     "91599142e1ac5c1f8ed73356b9454f400304f70de683d77e1500549872a080b4"),
    ((60, 3, 9, 0, 5),
     "7a13afda782c915c43b7606ddb0865d031c8fced7ef035f4dd285c94ce4b2d9d",
     "cdc46d498a9ff7e7df0a08d6db688159f27e55858ed3d968c091eda5b5ec1275"),
    ((100, 4, 9, 30, 6),
     "9d2b09b759e4fb8088f0d8830835b86a86487ddba3cb8831d2d62879c245e943",
     "d5eb762d7c165b760ddda98b161cb255a8b3d973009b1f7bab13bec2256f9789"),
    ((100, 4, 1, 100, 7),
     "4b1d2e936f0ad5d8188f757c7388e0aada8b5594c6f60c40c830da637e4ff55c",
     "2da4b9aa36a3229a3170c49b60d5647e560c42232aa1146754d58db0e3117adc"),
    ((250, 3, 1, 30, 1),
     "896f3199089146b09da1253ef59ed31cd85c456d7c47d219868c9c85cb542f49",
     "9470ccd7e1e513762eb70cb5c6e579c621f2752e3051143dceb6d0c35a2eba44"),
    ((250, 1, 9, 100, 8),
     "7c2f5801a4860dc130a398accff64b1d4e7cc296f6174f91dfe1fc0db776dc3a",
     "8e165975597ebf604c2316a438d33777577f445a4975d596e44e17b9b67e76f7"),
    ((400, 2, 9, 30, 9),
     "848f974c966a60d2b65dd3f30da43ea18bad53559b5a3b6531df13889aa9ad22",
     "cd485fc45fa79ee4a94d595cd6c3803ce1c344355c6812a70c92c8f1755488cf"),
    ((1000, 3, 1, 30, 10),
     "32d3cd88befc3580f341805b760bbd7eb7c42b99ff3a638dee1e3d2dba2a524b",
     "122c1979b295f33816876b3c2e8baead24fe020330a79a503b4773f9c4e09a7e"),
    ((1000, 4, 9, 100, 11),
     "51ef759f2b9b9a7fe07869f221bff38751ccd41cefad789806ad94e77c81789d",
     "cd0b3a77e490d7c6be5e45dec09d22f4584c1d3cd0ab5e351be561ec65067fdf"),
    ((1000, 1, 1, 0, 12),
     "117d34d1ebc0758cfc0ed6441fe2dd63807f93f0bd1227105d665b996f49e761",
     "6634da53122b64d2a63c8b1e5f3cfc41c99c09c2d2156cbd19150be2409315a8"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "case,graph_sha,td_sha",
    GENERATOR_PINS,
    ids=["n{}-k{}-w{}-p{}-s{}".format(*case) for case, _, _ in GENERATOR_PINS],
)
def test_random_partial_ktree_bytes_are_pinned(case, graph_sha, td_sha):
    n, k, max_weight, drop, seed = case
    g, td = random_partial_ktree(SplitMix64(seed), n, k, max_weight, drop)
    td_text = json.dumps(td.to_json(), sort_keys=True, separators=(",", ":"))
    assert _sha256(graph_to_json(g)) == graph_sha
    assert _sha256(td_text) == td_sha


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_drop_extremes(k):
    # dropping every edge that is not a bridge leaves a spanning tree;
    # dropping none keeps all k(k+1)/2 + (n-k-1)k edges of the k-tree
    n = 80
    g, td = random_partial_ktree(SplitMix64(k), n, k, drop_prob_percent=100)
    assert len(g.edges) == n - 1
    assert verify_decomposition(g, td)
    g, td = random_partial_ktree(SplitMix64(k), n, k, drop_prob_percent=0)
    assert len(g.edges) == k * (k + 1) // 2 + (n - k - 1) * k
    assert verify_decomposition(g, td)
