"""Pinned stdout digests: each case runs one CLI request in-process and checks
its exit code and the SHA-256 of everything it wrote to stdout.

They pin every exact output byte for byte (fractions, sample streams for a
given seed, CSV and JSON layouts), so a refactor that changes any of them fails
here.  A digest changes only with a deliberate change of output.
"""

from __future__ import annotations

import hashlib
import io
import random
import sys

import pytest

from mixspec.cli import main


def _gnp(n: int, p: float, seed: int) -> str:
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# Edge lists fed on stdin to the ``--input -`` cases.
STDIN = {
    "cube": "n 8\n0 1\n0 2\n0 4\n1 3\n1 5\n2 3\n2 6\n3 7\n4 5\n4 6\n5 7\n6 7\n",
    # A triangle with a pendant on one corner and a three-edge tail on
    # another, plus two isolated vertices.
    "pendants": "n 9\n0 1\n1 2\n2 0\n0 3\n1 4\n4 5\n5 6\n",
    # A 4-spine caterpillar with two legs per spine vertex: V'' is empty.
    "empty-vpp": "0 1\n1 2\n2 3\n0 4\n0 5\n1 6\n1 7\n2 8\n2 9\n3 10\n3 11\n",
    # Two disjoint edges: the bound is inapplicable.
    "disjoint": "0 1\n2 3\n",
    "square": "0 1\n1 2\n2 3\n3 0\n",
    "edgeless": "n 3\n",
    # Degrees of both parities with minimum degree 2.
    "mixed": "0 1\n1 2\n2 3\n3 0\n0 2\n1 4\n4 5\n5 1\n",
    # No vertices: the one (empty) coloring.
    "empty": "n 0\n",
    # A 10-vertex path with one leg per spine vertex: the two spine ends lie
    # in V' but not in V'', and most V'' pairs are at distance >= 3.
    "caterpillar": "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n"
    "0 10\n1 11\n2 12\n3 13\n4 14\n5 15\n6 16\n7 17\n8 18\n9 19\n",
    # A 12-cycle with the chords 0-6 and 3-9: minimum degree 2, not regular.
    "chorded": "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 11\n11 0\n0 6\n3 9\n",
    # The 3x7 grid, vertex r*7 + c at row r and column c.
    "grid3x7": "n 21\n" + "".join(
        f"{v} {w}\n" for v in range(21) for w in (v + 1, v + 7)
        if w < 21 and (w == v + 7 or w % 7)),
    # A dense seeded G(18, 0.5), 74 edges: too wide for the frontier DP, so
    # ``spectrum`` runs the search too.
    "gnp18": _gnp(18, 0.5, 18),
}

# case id -> (argv, stdin key or None, exit code, SHA-256 of stdout)
CASES: dict[str, tuple[str, str | None, int, str]] = {
    "bound-general-petersen": ("bound --family petersen --variant general", None, 0, "0a0df1cda33693fba295f99e1b7034557a3cfc6c41a54d080408832f0ed9ed0d"),
    "bound-general-cube": ("bound --input - --variant general", "cube", 0, "935e02b376c3e62832e97863c3c5ac82d5315240c18ccdac220cdeb97cdfda96"),
    "bound-general-cycle12": ("bound --family cycle --n 12 --variant general", None, 0, "d28eb7fefc46bc93eea5a8be64bcd97b04c60983c19dd8cf97769fa6f6076948"),
    "bound-min-degree-petersen": ("bound --family petersen --variant min-degree", None, 0, "9256d4a64211843633f7205d82b8e30154f23e9821e010eb2f0cd70042758cb6"),
    "bound-min-degree-cube": ("bound --input - --variant min-degree", "cube", 0, "6dbfa0dcfb923446c3d4c5ac6a119bd030f0723d547537d5605147e8e823faaf"),
    "bound-min-degree-cycle12": ("bound --family cycle --n 12 --variant min-degree", None, 0, "26fd95818298568c10ed1aebe9cb6f85b7d297adcac4101d0b2a987ca2c19fe3"),
    "bound-regular-petersen": ("bound --family petersen --variant regular", None, 0, "def588af5ca483f250c55ef2f66d24a0ad1453e6a7cc591a77b775e8646942ff"),
    "bound-regular-cube": ("bound --input - --variant regular", "cube", 0, "0be5d0e3aa1788c0ae42bf84925155b173b24ff22c8b853ea310c068892a9ed8"),
    "bound-regular-cycle12": ("bound --family cycle --n 12 --variant regular", None, 0, "828be71d951edf92ff7876e85d569ea7dfb15e5efbc0b51f5da2f90525c8f6ff"),
    "bound-srg-petersen": ("bound --family petersen --variant srg", None, 0, "3b68c0e1ae3f8becd2715dd09d8fddf5b14d3f98ca3483753ce80a9b34ddfce4"),
    "bound-srg-cube": ("bound --input - --variant srg", "cube", 3, "5f96649e0860513a9d327a6bbf328dd7eb1f54e24891be8be9283cdaba5ce8d9"),
    "bound-srg-cycle12": ("bound --family cycle --n 12 --variant srg", None, 3, "5f96649e0860513a9d327a6bbf328dd7eb1f54e24891be8be9283cdaba5ce8d9"),
    "bound-auto-petersen": ("bound --family petersen --variant auto", None, 0, "41db3f704a87375b386d7d1b57c32a95c744c482ad4f725ec69aafb3f057f5f3"),
    "bound-auto-cube": ("bound --input - --variant auto", "cube", 0, "69eb1b08ce270b2b6aa38f9db64514869fa061a112889be04a66ee8546269bb9"),
    "bound-auto-cycle12": ("bound --family cycle --n 12 --variant auto", None, 0, "4ec90ff9ca230ce6a0df93f70123725973c7144e7dfc0cd48d19a6b46aabcf12"),
    "bound-general-pendants": ("bound --input - --variant general --exact", "pendants", 0, "0be68ea222ecfb7d6b208d4d7fecf8de5523172482d55a5e946b27177d746775"),
    "bound-general-empty-vpp": ("bound --input - --variant general", "empty-vpp", 0, "9dbb949d09844e429cf64fe5c3144c75b800116cdbce58838e53c021bfb20f6d"),
    "bound-general-disjoint": ("bound --input - --variant general", "disjoint", 3, "fce3e55abad5a4cb84ed5641afc2c952255248006409c243e1e69c35b8f6a562"),
    "bound-auto-cycle60": ("bound --family cycle --n 60", None, 0, "c3c415ecf1f55d298a69361b456040cec3ea07856cddf97cf337e33610f20192"),
    "bound-general-caterpillar": ("bound --input - --variant general", "caterpillar", 0, "761fe86e68f41ea0f5f95e3115c87806c98ee2046707c3871fbdfc36a99a6974"),
    "bound-min-degree-chorded": ("bound --input - --variant min-degree", "chorded", 0, "ad95d5e40d62873bd73194bc3581d6eec97e9a612914ce4928c6cd8964bae236"),
    "bound-auto-mixed": ("bound --input - --variant auto", "mixed", 0, "b53fe521d494910f44e9b0bf52cc6201d05f2699162f9eb267b6466ba5e87a06"),
    "pmf-cycle-2": ("pmf --family cycle --n 2", None, 0, "0e329aa39eb6b16031b930c2d107b40a750a1eba5edcc8e3c6116af3621f0123"),
    "pmf-cycle-2-csv": ("pmf --family cycle --n 2 --format csv", None, 0, "30d03f0158373c29506d5fb04af5bf63b0358b995ef850eb96d3178b9cc83f88"),
    "pmf-path-9": ("pmf --family path --n 9", None, 0, "06b2014d865b76b20e79ee67e0dc2e6a0a3ab0c6d81ba00775254c1ead0b91ce"),
    "pmf-cycle-13-csv": ("pmf --family cycle --n 13 --format csv", None, 0, "93a89c2cdd6f09e7382e7855fa4a2f98c8bffac564250b2fbd837c40334d85c6"),
    "pmf-input-square": ("pmf --input -", "square", 0, "c252883ce6405d5b8251b3980c251bd17aa5c9f7654a69003c9c3b9fe9cdbdd8"),
    "moments-input-mixed": ("moments --input -", "mixed", 0, "6b65db2d8a39e055a5793b42f05b8dbbeab207b68e4a447763e98b94e080594f"),
    "moments-input-edgeless": ("moments --input -", "edgeless", 0, "172be99329b568999c5606b66616306aba064fa80868b63915e170a3bfacb613"),
    "moments-complete-6": ("moments --family complete --n 6", None, 0, "567e0fbc0ad559b90b1ae2fc2f3a82d672a8767de9f0bd785acf25ee9e3b6cc4"),
    "moments-path-5": ("moments --family path --n 5", None, 0, "35611f875ab45c7cbf52ac66c02384d9f0157a7aa414e7fc548a626d85503ab2"),
    "moments-cycle-5": ("moments --family cycle --n 5", None, 0, "15059f8248bb153a9c06a2438c78dbaf1ac0ba7ba3502d18c0da21029381bcec"),
    "moments-path-12": ("moments --family path --n 12", None, 0, "e17e5bd354c064a66f370308700d56068f6e51aed98c0aa015693c3745b502a6"),
    "moments-cycle-12": ("moments --family cycle --n 12", None, 0, "5c04e30706d18c343e5b07bdb603a4647cc5c4d16ef8043a04de719dc1f08811"),
    "sample-path-seed1": ("sample --family path --n 17 --seed 1 --count 25", None, 0, "e4cb1baeb0394f7929323f30246d7c404c8b0852ba8ab26aea1b083ae487af22"),
    "sample-path-seed2": ("sample --family path --n 17 --seed 2 --count 25", None, 0, "46e5360075e8553caf5f2ad3eb658524cba6bcc10376cd2e0eb9e858198ed58e"),
    "sample-cycle-seed1": ("sample --family cycle --n 18 --seed 1 --count 25", None, 0, "0a8a4d6afd2fc5aa5b8bdb7929ecbe9fe9d1eea79fccf6cc4414482dd6d52fbf"),
    "sample-cycle-seed2": ("sample --family cycle --n 18 --seed 2 --count 25", None, 0, "ebf24d8082822ed1fff96e1894799e9b8f68e192d2a86f77f80fcb7b6e57bb3d"),
    "sample-path-300": ("sample --family path --n 300 --seed 5 --count 3", None, 0, "bfd21de7c6b682db8c48aa6b5bb5233e7c3181279e4568886b731c8a36f42e03"),
    "sample-cycle-300": ("sample --family cycle --n 300 --seed 5 --count 3", None, 0, "753678d67126974a1999d3b825f6b685a66d70ae0d89c77486f3b089167e4382"),
    # Large enough that the count vectors are bignum walks; the cycle cases
    # cover n = 0, 1, 2, 3 (mod 4), which move where each diagonal starts.
    "sample-path-2001": ("sample --family path --n 2001 --seed 4 --count 2", None, 0, "baa88ce16b5e836c6ab144529d74b7268a92f4a6bc9ac17a5e4a7d8199e9fcad"),
    "sample-cycle-2003": ("sample --family cycle --n 2003 --seed 4 --count 2", None, 0, "5af37d5dd23b030faba4536a6700e6dfe139507ac87487aa33fc0813244b6193"),
    # Draws that cross several blocks of generator words, a seed past 2^64,
    # and one row of a GF table at n = 2000.
    "sample-path-60x400": ("sample --family path --n 60 --seed 3 --count 400", None, 0, "c94a6b7802ef868f4ed9957989ddbe3c8fff97d74797fbad4c4a44ac1678801f"),
    "sample-cycle-61-wide-seed": ("sample --family cycle --n 61 --seed 18446744073709551621 --count 400", None, 0, "6b9bf8b5107d577acfb0f69ee7f6c3eb789f7ee5329afb937ed5e25364e89efb"),
    "sample-cycle-6000": ("sample --family cycle --n 6000 --seed 7 --count 2", None, 0, "45b3e34ab3aed04e7ad75da22a44a1574f07289cfe4316f792c06066bf857676"),
    "gf-path-2000": ("gf --family path --n 2000", None, 0, "b228ffff92bb5f291991c55e768235b901692c62c9bed273bf4426e74b30d6ab"),
    "gf-cycle-1999-csv": ("gf --family cycle --n 1999 --format csv", None, 0, "624bb9f5ef982ee36f8e1b18af9a68f6a3391ee771a08d88737e925c0518ac55"),
    "pmf-cycle-401-csv":("pmf --family cycle --n 401 --format csv", None, 0, "3102d573dbda7f688a1d78c48c4043ca645de69bfc3a55c5e3d6c973af2efcc4"),
    "pmf-cycle-400": ("pmf --family cycle --n 400", None, 0, "b02ecbdabb2f67536fbde35b0c184bd333d048ca75fea5e1029cb6c0ad827202"),
    "pmf-cycle-402-csv": ("pmf --family cycle --n 402 --format csv", None, 0, "419909b1219573a5de0646e3f13bef81e2f2719b04356aafc05cf0841ac47336"),
    "gf-cycle-203": ("gf --family cycle --n 203", None, 0, "80c990c6a1462c2a443f26fe2b7a0a99440ecacec176008fd2c1b80c015c8ffb"),
    "gf-path-20": ("gf --family path --n 20", None, 0, "865f07a4432efe18cf2456d4d020f1d365f085ba96ddec64fbec96afaaecb4bf"),
    "gf-cycle-20-csv": ("gf --family cycle --n 20 --format csv", None, 0, "abb9692f0a96b6064a588f210eeb66cbb364a81bb9e690aabe6b022009b96123"),
    "spectrum-cube": ("spectrum --input -", "cube", 0, "4d59081db3669a1466d3b148c6d572d336f5be4f873d14b19be7253bb615d816"),
    "spectrum-biclique-csv": ("spectrum --family biclique --m 2 --n 4 --format csv", None, 0, "c449a9d3baa52f667179bc1000b50a56b227d8264c8415487d04f08eaff7b33b"),
    "enumerate-pendants": ("enumerate --input -", "pendants", 0, "bf27b00aacef52234daff4788fdf70811bc79c99c4b6c0895151054e6bdf26ae"),
    "enumerate-empty": ("enumerate --input -", "empty", 0, "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    "spectrum-complete-9": ("spectrum --family complete --n 9", None, 0, "fde61534534d0e704981d90936a4d7ae538f0e91d56c628ba1843eb187f062ae"),
    "spectrum-cycle-14-csv": ("spectrum --family cycle --n 14 --format csv", None, 0, "4eaa4f21f007d6a4e2b71b8e3e6c9a625ff8e21255cbe5550a7442fbcc4b7e70"),
    "enumerate-cycle-7": ("enumerate --family cycle --n 7", None, 0, "59e2f49600d3b2835469b575d237d801fa691acdd4d636d75177ffe94be40300"),
    "gen-petersen": ("gen --family petersen", None, 0, "72e81adc954f596cabfa3f4d6980ae7a61d0af14366d74efab7aa478730a7c73"),
    "gen-biclique": ("gen --family biclique --m 2 --n 3", None, 0, "f3d0faff14d86ebd3e192eca33bcc3813fe0dcdeeb772e0780354769334f7d89"),
    # Answered by closed forms (complete graphs, bicliques) and by the
    # frontier DP (grid, chorded cycle) rather than by the search.
    "spectrum-biclique-4x6": ("spectrum --family biclique --m 4 --n 6", None, 0, "2d02b64dd4c9a153d72f363a52038677f2caa4cb1538d2b96741dc0612b8cc5b"),
    "spectrum-biclique-3x5-csv": ("spectrum --family biclique --m 3 --n 5 --format csv", None, 0, "007f55a9b235002717d6c54400464b0bf1db4a887427b73347cfd2435073dd8d"),
    "pmf-biclique-4x4-csv": ("pmf --family biclique --m 4 --n 4 --format csv", None, 0, "2eedc253b8c4827737c6d62b6a2390e29fe77bff5cc29a81287df3431e19bf17"),
    "pmf-complete-11": ("pmf --family complete --n 11", None, 0, "4d7e6ada2aedcb6d2d1c292ab69aca51f7cfee1603bed86196cf580b4f9aea87"),
    "spectrum-grid3x7-csv": ("spectrum --input - --format csv", "grid3x7", 0, "0334002469b7c89e95243faae50df20801429d6116644c94d56aec4c9ef1b3bc"),
    "moments-input-chorded": ("moments --input -", "chorded", 0, "7f549f5dd404e0c36b44dcc50b80e42931ecdd2b787934b0925ce7c58a14eabd"),
    "bound-exact-chorded": ("bound --input - --exact", "chorded", 0, "ca0d402a743bd14aa8323985c5160c4cf79603314b0109fa80274476a541b131"),
    # Dense graphs, where every V'' pair is dependent, and a long cycle.
    "bound-auto-complete-40": ("bound --family complete --n 40", None, 0, "2f0d4d23c76f63b96e736e8a0f8f61a77542d450ce4cfe5cf9899b000705b443"),
    "bound-auto-biclique-12x20": ("bound --family biclique --m 12 --n 20", None, 0, "7062b2502ae7a10a225c5f86086185036ef77591f363ceb4758c65c7b15c54d2"),
    "bound-general-gnp18": ("bound --input - --variant general", "gnp18", 0, "3a6f56d043680982d5180ed5fd40ffd66fa86b0c608805334382bbbb08abecdf"),
    "bound-general-cycle3000": ("bound --family cycle --n 3000 --variant general", None, 0, "fccb4bf27335b2dbb757c5657d452151e8a6b830e6ab9df6e859ef2d6a7e764a"),
    "spectrum-gnp18": ("spectrum --input -", "gnp18", 0, "e29b49f121083be5404620e243aa48e03ab32e14a10acd6b073f2609640ca2ff"),
    "enumerate-gnp18": ("enumerate --input -", "gnp18", 0, "4f2af99ff32b1cf5ba7221e4f8146b9c7d4e163f696e6573c3a8dce9924644c1"),
    # The ends of each family route: the smallest orders, the last order
    # answered from one GF row and the first from the CLT diagnostics, and
    # ``exact_ic`` on both reports of ``bound --variant auto``.
    "moments-path-1": ("moments --family path --n 1", None, 0, "7c00832e57b8f59478ab79682bdd2af1e7ac4854fff391e79476f4d4bcc38d71"),
    "moments-cycle-2": ("moments --family cycle --n 2", None, 0, "267ca2c7fe415f5c0898064f51736e9cebb49dd438c33f14e4392b95eb2df45e"),
    "moments-cycle-7": ("moments --family cycle --n 7", None, 0, "5295661fd7683c097acff33f7b079a386c3115100f1656d147da3ca3e70a8949"),
    "moments-cycle-8": ("moments --family cycle --n 8", None, 0, "8387e69a246b9a470c3f528ecbb089c4b482aeb63524e91d03d1889f69aa1120"),
    "gf-path-1": ("gf --family path --n 1", None, 0, "474e88d5fba82a2c692e05ef06baeab989d072342613eff86f280cc0c459c993"),
    "bound-auto-exact-cycle12": ("bound --family cycle --n 12 --exact", None, 0, "f6865e537355c7efa86be86d1832cbb6eedb0ad4a48b9866a401bb01c6286372"),
    "verify-small": ("verify --max-n 6 --random-count 5", None, 0, "d82cdf4c33b0bfc87ea679cf00ad02905f09933f69b969180a0b76e0e07c0fa2"),
    # 90 oracle graphs and 2025 V'' pairs for the semi-random oracles.
    "verify-oracles": ("verify --max-n 8 --random-count 40", None, 0, "4019111df35c3c669c297608900e8eb0b1c44decbbb55c1c229f015b92818ad9"),
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_stdout(case_id, monkeypatch, capsys):
    argv, stdin, code, digest = CASES[case_id]
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(STDIN[stdin]))
    got_code = main(argv.split())
    out = capsys.readouterr().out
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
