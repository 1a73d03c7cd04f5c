import hashlib
import json

import pytest

from kslab.instances import SplitMix64, random_partial_ktree
from kslab.metric_core import graph_to_json
from kslab.tree_decomp import verify_decomposition

# (N, width, max_weight, drop_prob_percent, seed), sha256 of graph_to_json(g),
# sha256 of the canonical JSON of td.to_json(); recorded with the generator
# that searched the graph for every candidate drop (from vertex 0; for the
# two largest, from both ends of the edge), and the union-find pass gives
# the same bytes
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
    ((2000, 3, 1, 30, 1),
     "ffc728c1748906af308e354de60bc4989431525bed32cf23846ca93495a64036",
     "543ac941b7c275d8566bdc7a47c177afca24d1ad523ca9a25d298d26ed63a33e"),
    ((16384, 3, 1, 30, 1),
     "66ec0fae8954c70ffd401e5110798f419004ed3201a3f1cac840d37c34613cee",
     "7c0447b1afbb861b7de40f9d2c125ddb86a64aa8c5e8dc6f62e4784dce73e718"),
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


def _reverse_delete_ktree(rng, n, k, max_weight, drop):
    """The generator's recipe with its drop rule as stated: in shuffled
    order, a drawn edge goes when a search of the rest of the graph from
    u still reaches v.  Returns (weighted edges, bags, parent)."""
    bags, parent = [tuple(range(k + 1))], [None]
    edges = {(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)}
    for v in range(k + 1, n):
        b = rng.randrange(len(bags))
        bag = list(bags[b])
        del bag[rng.randrange(len(bag))]
        edges |= {(u, v) for u in bag}
        bags.append(tuple(sorted(bag + [v])))
        parent.append(b)
    order = sorted(edges)
    rng.shuffle(order)
    for u, v in order:
        if rng.randrange(100) < drop and _reaches(edges - {(u, v)}, u, v):
            edges.discard((u, v))
    weighted = [
        (u, v, 1 if max_weight <= 1 else rng.randint(1, max_weight))
        for u, v in sorted(edges)
    ]
    return weighted, bags, parent


def _reaches(edges, u, v):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen, stack = {u}, [u]
    while stack:
        for y in adj.get(stack.pop(), ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return v in seen


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_drops_match_plain_reverse_delete(k):
    # 120 cases per width: N from k+1 to 60, every drop extreme and middle
    for n in sorted({k + 1, k + 2, 9, 23, 60}):
        for drop in (0, 30, 70, 100):
            for max_weight in (1, 9):
                for seed in range(3):
                    case = (n, k, max_weight, drop)
                    g, td = random_partial_ktree(SplitMix64(seed), *case)
                    edges, bags, parent = _reverse_delete_ktree(
                        SplitMix64(seed), *case
                    )
                    assert list(g.edges) == edges, (case, seed)
                    assert list(td.bags) == bags and list(td.parent) == parent
