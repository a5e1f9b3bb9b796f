"""Golden digests of the default output.

Each entry is the sha256 of one default JSON document: the library
reports (`scan_aperiodicity`, `is_simple`, `analyze` without its
`timing` key) on the four fixtures at bounds 1-3, and the stdout of
`kgraph aperiodic|simple|cofinal|validate|ideals` on `fixtures/*.json`.
A change that alters a verdict, a witness, a tuple or a byte of JSON
fails here; a change that alters them on purpose updates the table.

`BUILD_DIGESTS` covers the build side at size: the stdout of `kgraph
validate`, `kgraph cofinal` and `kgraph quotient --set <least
obstruction, or empty>` on generated products with hundreds of rows,
each document read from standard input, and the stdout of `kgraph
validate` on three of them after one edit of the square table.

`STRIPPED` digests the same 56 documents with each aperiodicity
witness's `lambda`, `segment_m` and `segment_n` replaced by a
placeholder.  A change of search order that picks other witnesses
updates `DIGESTS` for exactly the documents that carry a changed
witness, and must leave `STRIPPED` alone: every verdict, periodic hit,
tuple and other byte stays put.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from kgraph import KGraph, analyze, canonical_json, dump_graph_document, fixture_parts, is_simple, scan_aperiodicity
from kgraph.cli import main

from generators import cycle_product, disjoint_union, k2_products, k3_products, wide_graph
from oracles import least_singleton_obstruction

FIXDIR = Path(__file__).resolve().parent.parent / "fixtures"

LIBRARY = {
    "scan_aperiodicity": lambda g, b: scan_aperiodicity(g, b).to_json(),
    "is_simple": lambda g, b: is_simple(g, b).to_json(),
    "analyze": lambda g, b: {k: v for k, v in analyze(g, b).to_json().items() if k != "timing"},
}

DIGESTS = {
    "scan_aperiodicity T2 1": "21302cb42e32ac4d93f6b3ab4c6f6c17e13840110a6f5b20a5dd2013eaf5cbb2",
    "scan_aperiodicity T2 2": "f066bbe70ea5292bfdd70f0d5fc0a9149b26778e6336eacebb759ab84d2f2e45",
    "scan_aperiodicity T2 3": "9272f80d58135644e648947f72041c37ff1f9c7fcf2fd9d8167dad65a4265914",
    "scan_aperiodicity F 1": "dd4d8dda86d937d615d5b2e40353f5559d7edf161ef8fdbf36bb563cb8c875a0",
    "scan_aperiodicity F 2": "2c90ac161e6ee7709073afc821ed7ded50e30605d29bf615f41e8a4ad57a2e8d",
    "scan_aperiodicity F 3": "0549792c429e4b631ee15fd3b6651149773c0e4121dc3265d85e17db063794e8",
    "scan_aperiodicity D 1": "e14813b6b12e3e2d88130ea26b91745a36bf1988a8af5c6f95d492c833ac6f9f",
    "scan_aperiodicity D 2": "eb12d6104570beab37cad938d59df858614fb517b27e78eafd0ef2bae763ecf9",
    "scan_aperiodicity D 3": "4ed9ad2d547ca8be38ae0be7842ec68a2b03804198e9e273dea565c9e37f039b",
    "scan_aperiodicity D2 1": "5b3ca0917ceabed877da88c4fd936f9723ba55591d74f1c009870d7677500af6",
    "scan_aperiodicity D2 2": "18b7220275b001ff7810d3f419c598086fea4e714141ef6b22b8c510c8807932",
    "scan_aperiodicity D2 3": "4db8ea02c3d53bf74493edebf465b0651b2767c2dd5040159efe513cb8bc3a76",
    "is_simple T2 1": "e18f5bbc6d9e6301a3bbee8d0f046c88a4442e22046e3bec8c62cf65158979eb",
    "is_simple T2 2": "b752fac40db42b7b577326c4077282ac615c190cd043df56764234f354bbe943",
    "is_simple T2 3": "c7d469bfe580ec4e8f6f739046bd934d45ec26904af06a3b4ddf3b5769dc2015",
    "is_simple F 1": "47c80dbd7e400bbf34417415c58a0c836fb960109fa8e475db50df6683f87ee8",
    "is_simple F 2": "57fc0fb279584825663ef2e48d948ce0043a1b15a00ad854fafa278bfdc2b121",
    "is_simple F 3": "79afa8f36c3a688da0f25564265cf3e2cb8ac43bc971c042e1190231f112c8d8",
    "is_simple D 1": "72971b990f2c93fa996d88bbf6a55be0efb98ded740d5df0f2afb37a25d6cd85",
    "is_simple D 2": "fbcbc4d10373b2bdf5ba79c5db75552bbaced1477324a9bd11099141b6a233c5",
    "is_simple D 3": "1c13efd0a2d6dd1162bb62e85d2fb45cd8903fec91a28c4cab2fb289fc3299de",
    "is_simple D2 1": "72971b990f2c93fa996d88bbf6a55be0efb98ded740d5df0f2afb37a25d6cd85",
    "is_simple D2 2": "fbcbc4d10373b2bdf5ba79c5db75552bbaced1477324a9bd11099141b6a233c5",
    "is_simple D2 3": "1c13efd0a2d6dd1162bb62e85d2fb45cd8903fec91a28c4cab2fb289fc3299de",
    "analyze T2 1": "37b5d2c216c7a848c0bbff7a47d38483bdb886dcb77e5bba092d103188d17be7",
    "analyze T2 2": "84cdd2d037d94c633cc2ae14eb09bc81f2ac26b2994ea4bb2b0cee0d7ed9b931",
    "analyze T2 3": "578534a3ccf1b2bdb9a4f8c7bfdc05a7af31e0cb2101c710f2bf3a3b65d92133",
    "analyze F 1": "95d0c2c9d2e40a550a8e505c778327273102c52d39a5b098508e1aefc19dfcf7",
    "analyze F 2": "a17b207868c338c2758d94600129a36381420b3370767e4a9dc7e27b8f9b203f",
    "analyze F 3": "72c48695ed29d4a57ca1b75ac9234c80f072d9f0045427274675404f69411ec4",
    "analyze D 1": "d784438864dd47597ffe3efec60f8a26f1145a73becca2a30ba092fb65e16b0b",
    "analyze D 2": "6e8905ac11664fe4da109072b6a17eab664913aec7a2ed97e7cfb2881ed25735",
    "analyze D 3": "7f9680cdc5ebaa287a595acca3bb8d1044261008d32c3b1cfe91a724bf06b667",
    "analyze D2 1": "309bcb6728d79c1a946708c07317af9df7dcdf50fd50e5accb54caf147647e05",
    "analyze D2 2": "d840dbcfad497a53ac5d710c50dfcfefa368465546bdc8f0e84f71f3a7590d8d",
    "analyze D2 3": "be77e2b9abb2000f8d7b314c953cadb8c7bfb2e289b8cea8f367d140e89bd492",
    "kgraph aperiodic T2": "f066bbe70ea5292bfdd70f0d5fc0a9149b26778e6336eacebb759ab84d2f2e45",
    "kgraph aperiodic F": "0549792c429e4b631ee15fd3b6651149773c0e4121dc3265d85e17db063794e8",
    "kgraph aperiodic D": "b3e2827c622932f3e8f201b4d1de4acc6bedeb68b518436af371a8b0f11730b9",
    "kgraph aperiodic D2": "e3dc993ae81dd832ab452e6c570b2d30c85667819e7aa35662f874dbbf8f1eca",
    "kgraph simple T2": "b752fac40db42b7b577326c4077282ac615c190cd043df56764234f354bbe943",
    "kgraph simple F": "79afa8f36c3a688da0f25564265cf3e2cb8ac43bc971c042e1190231f112c8d8",
    "kgraph simple D": "86b8fd2473f5942ca0fd83eb07fd157669c11402f950acb3c0ab7ece2b982511",
    "kgraph simple D2": "a15720519a5add921c2d3964134f71487608816f4d3a5c11aa9e781a3fb465d7",
    "kgraph cofinal T2": "28b95fdd7f1fa73b90ce25f2dfa9cf225d1827555c8ec113154e425cceef89b8",
    "kgraph cofinal F": "28b95fdd7f1fa73b90ce25f2dfa9cf225d1827555c8ec113154e425cceef89b8",
    "kgraph cofinal D": "981d3eee0639846804c81e25d9b09994a4104fd9a7747efafa5ad4c6b8195357",
    "kgraph cofinal D2": "981d3eee0639846804c81e25d9b09994a4104fd9a7747efafa5ad4c6b8195357",
    "kgraph validate T2": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph validate F": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph validate D": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph validate D2": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph ideals T2": "20df3168d53e7bc13766d0713664c92cea0b46591814c2eb085e9f9989f04b41",
    "kgraph ideals F": "20df3168d53e7bc13766d0713664c92cea0b46591814c2eb085e9f9989f04b41",
    "kgraph ideals D": "8a57e69ee60f290a74148a58a9bd1b81187f981810840db4f788393b5757a321",
    "kgraph ideals D2": "c0fec4db8f376ce7baba3f6ac4801abcc5800c32c64ed8fae45c7dfee506ea0b",
}

STRIPPED = {
    "scan_aperiodicity T2 1": "21302cb42e32ac4d93f6b3ab4c6f6c17e13840110a6f5b20a5dd2013eaf5cbb2",
    "scan_aperiodicity T2 2": "f066bbe70ea5292bfdd70f0d5fc0a9149b26778e6336eacebb759ab84d2f2e45",
    "scan_aperiodicity T2 3": "9272f80d58135644e648947f72041c37ff1f9c7fcf2fd9d8167dad65a4265914",
    "scan_aperiodicity F 1": "34b7102203a4b47c4a75aea0dbfaaa16f31d0326dc1512c2329cc9016964a73c",
    "scan_aperiodicity F 2": "462d3377e22aaf5322f390693e22f94618350a60dab5c2cca06ccdbb1155b780",
    "scan_aperiodicity F 3": "c0e06c6b6bf47f14ba627aa57d78d2950538bc4057e33d59cdf8f7d72ec215da",
    "scan_aperiodicity D 1": "e14813b6b12e3e2d88130ea26b91745a36bf1988a8af5c6f95d492c833ac6f9f",
    "scan_aperiodicity D 2": "eb12d6104570beab37cad938d59df858614fb517b27e78eafd0ef2bae763ecf9",
    "scan_aperiodicity D 3": "4ed9ad2d547ca8be38ae0be7842ec68a2b03804198e9e273dea565c9e37f039b",
    "scan_aperiodicity D2 1": "09b2688d7eb5e5ff2e5065660c9db40f935de8cf1bb974f4361f17ea09e98518",
    "scan_aperiodicity D2 2": "b123e9f4ad6bbf8656b4f9d52553859ef426e53ac32b923cc3725e08887094a4",
    "scan_aperiodicity D2 3": "38fe63781d81b826ccabf626cf1287369a33a3b32113fc6f3e1be80b9227b252",
    "is_simple T2 1": "e18f5bbc6d9e6301a3bbee8d0f046c88a4442e22046e3bec8c62cf65158979eb",
    "is_simple T2 2": "b752fac40db42b7b577326c4077282ac615c190cd043df56764234f354bbe943",
    "is_simple T2 3": "c7d469bfe580ec4e8f6f739046bd934d45ec26904af06a3b4ddf3b5769dc2015",
    "is_simple F 1": "47c80dbd7e400bbf34417415c58a0c836fb960109fa8e475db50df6683f87ee8",
    "is_simple F 2": "57fc0fb279584825663ef2e48d948ce0043a1b15a00ad854fafa278bfdc2b121",
    "is_simple F 3": "79afa8f36c3a688da0f25564265cf3e2cb8ac43bc971c042e1190231f112c8d8",
    "is_simple D 1": "72971b990f2c93fa996d88bbf6a55be0efb98ded740d5df0f2afb37a25d6cd85",
    "is_simple D 2": "fbcbc4d10373b2bdf5ba79c5db75552bbaced1477324a9bd11099141b6a233c5",
    "is_simple D 3": "1c13efd0a2d6dd1162bb62e85d2fb45cd8903fec91a28c4cab2fb289fc3299de",
    "is_simple D2 1": "72971b990f2c93fa996d88bbf6a55be0efb98ded740d5df0f2afb37a25d6cd85",
    "is_simple D2 2": "fbcbc4d10373b2bdf5ba79c5db75552bbaced1477324a9bd11099141b6a233c5",
    "is_simple D2 3": "1c13efd0a2d6dd1162bb62e85d2fb45cd8903fec91a28c4cab2fb289fc3299de",
    "analyze T2 1": "37b5d2c216c7a848c0bbff7a47d38483bdb886dcb77e5bba092d103188d17be7",
    "analyze T2 2": "84cdd2d037d94c633cc2ae14eb09bc81f2ac26b2994ea4bb2b0cee0d7ed9b931",
    "analyze T2 3": "578534a3ccf1b2bdb9a4f8c7bfdc05a7af31e0cb2101c710f2bf3a3b65d92133",
    "analyze F 1": "6d751c80efb2cf2121f5eb6955f8d7f76fbefe9bc8368ba7e17be0e9832a6a54",
    "analyze F 2": "1d55f82193d005f5afad251fa653b9bc3c494aa70a600a73c20f4b18c3521fce",
    "analyze F 3": "d2511ff812d03661dbb0410336c90018713b27484b9eb4681e1067a0eb91bc5a",
    "analyze D 1": "d784438864dd47597ffe3efec60f8a26f1145a73becca2a30ba092fb65e16b0b",
    "analyze D 2": "6e8905ac11664fe4da109072b6a17eab664913aec7a2ed97e7cfb2881ed25735",
    "analyze D 3": "7f9680cdc5ebaa287a595acca3bb8d1044261008d32c3b1cfe91a724bf06b667",
    "analyze D2 1": "565ce3d88058281a9889771087a18339722a4687a037990117ee5c1f2ed70cde",
    "analyze D2 2": "c86001b44a99b090976a6c3dbe4559580fa62530019b765cf55ef745521f5b8b",
    "analyze D2 3": "319df995b9294615ab34eaaa07cb86075f58dbf86357d2120eb4e19206338524",
    "kgraph aperiodic T2": "f066bbe70ea5292bfdd70f0d5fc0a9149b26778e6336eacebb759ab84d2f2e45",
    "kgraph aperiodic F": "c0e06c6b6bf47f14ba627aa57d78d2950538bc4057e33d59cdf8f7d72ec215da",
    "kgraph aperiodic D": "b3e2827c622932f3e8f201b4d1de4acc6bedeb68b518436af371a8b0f11730b9",
    "kgraph aperiodic D2": "6a737df710cced7713bbb65a7a9d51109fbfd7fc6a9a285aced410fe21ef6c41",
    "kgraph simple T2": "b752fac40db42b7b577326c4077282ac615c190cd043df56764234f354bbe943",
    "kgraph simple F": "79afa8f36c3a688da0f25564265cf3e2cb8ac43bc971c042e1190231f112c8d8",
    "kgraph simple D": "86b8fd2473f5942ca0fd83eb07fd157669c11402f950acb3c0ab7ece2b982511",
    "kgraph simple D2": "a15720519a5add921c2d3964134f71487608816f4d3a5c11aa9e781a3fb465d7",
    "kgraph cofinal T2": "28b95fdd7f1fa73b90ce25f2dfa9cf225d1827555c8ec113154e425cceef89b8",
    "kgraph cofinal F": "28b95fdd7f1fa73b90ce25f2dfa9cf225d1827555c8ec113154e425cceef89b8",
    "kgraph cofinal D": "981d3eee0639846804c81e25d9b09994a4104fd9a7747efafa5ad4c6b8195357",
    "kgraph cofinal D2": "981d3eee0639846804c81e25d9b09994a4104fd9a7747efafa5ad4c6b8195357",
    "kgraph validate T2": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph validate F": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph validate D": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph validate D2": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph ideals T2": "20df3168d53e7bc13766d0713664c92cea0b46591814c2eb085e9f9989f04b41",
    "kgraph ideals F": "20df3168d53e7bc13766d0713664c92cea0b46591814c2eb085e9f9989f04b41",
    "kgraph ideals D": "8a57e69ee60f290a74148a58a9bd1b81187f981810840db4f788393b5757a321",
    "kgraph ideals D2": "c0fec4db8f376ce7baba3f6ac4801abcc5800c32c64ed8fae45c7dfee506ea0b",
}

BUILD_GRAPHS = {
    "cycle 12x16": lambda: cycle_product(12, 16),
    "k2 union 12": lambda: disjoint_union(k2_products(12)),
    "k3 union 8": lambda: disjoint_union(k3_products(8)),
    "wide": wide_graph,
}


def _exchange_first_and_last_images(squares):
    squares[0]["image"], squares[-1]["image"] = squares[-1]["image"], squares[0]["image"]


BROKEN_TABLES = {
    "cycle 12x16 less its first square": ("cycle 12x16", lambda squares: squares.pop(0)),
    "k2 union 12 with a square twice": ("k2 union 12", lambda squares: squares.append(squares[5])),
    "k3 union 8 with first and last images exchanged": ("k3 union 8", _exchange_first_and_last_images),
}

BUILD_DIGESTS = {
    "kgraph validate cycle 12x16": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph cofinal cycle 12x16": "28b95fdd7f1fa73b90ce25f2dfa9cf225d1827555c8ec113154e425cceef89b8",
    "kgraph quotient cycle 12x16": "8ab44caa2b58c6ce5a66a5d72c448b0f9796621c3c4ceac0f701ed72c236b6ba",
    "kgraph validate k2 union 12": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph cofinal k2 union 12": "b958e8f45a7cbece7e690a4ff0fca79fca08461d0a835ebdfbc4fe00c7a86444",
    "kgraph quotient k2 union 12": "c124522c3dcecd3e5ff2b6e07be863905d96f073cb524016135090a866e5de69",
    "kgraph validate k3 union 8": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph cofinal k3 union 8": "9648637ff7c7199d04867e330e517ce1c70340ee3d289c4436667d725d240adf",
    "kgraph quotient k3 union 8": "c2ddad79ebf48789bc63416147a34a2d3c4c0dc0e7fbced45d3adea393ca6ebe",
    "kgraph validate wide": "a633fe60484c6d208546fdeaa80c5864a7e58c8629a16974a690cf43fff64c7f",
    "kgraph cofinal wide": "8bb7b433ba6d03e3a4c881e0ede0684aba94f152f67b8f79e518fd004c7f2733",
    "kgraph quotient wide": "1007ffa01d3021dab59018cdd733e3ce96ef38b024b9d5001c5a24a7284238a3",
    "kgraph validate cycle 12x16 less its first square": "0b44c0d4dc0e2af065327570a73fa9a64637599110faa1487a620737c75a73ca",
    "kgraph validate k2 union 12 with a square twice": "478bf33b3e94fe2d3d9b70a9509d150857cec2e50ca9350ca8e52128f16c129e",
    "kgraph validate k3 union 8 with first and last images exchanged": "5843c9c561d1166bc88387563b1c65c91d62aa90ec078556c65f3d8edda3598d",
}


WITNESS_KEYS = ("lambda", "segment_m", "segment_n")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def library_text(func, name, bound):
    return canonical_json(LIBRARY[func](KGraph(*fixture_parts(name)), bound))


@functools.cache
def cli_text(command, name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([command, str(FIXDIR / f"{name}.json")])
    return out.getvalue()


def strip_witnesses(obj):
    """The same JSON value with every witness path replaced by a placeholder."""
    if isinstance(obj, list):
        return [strip_witnesses(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    is_witness = all(key in obj for key in WITNESS_KEYS)
    return {
        key: "<witness path>" if is_witness and key in WITNESS_KEYS else strip_witnesses(val)
        for key, val in obj.items()
    }


def stripped_digest(text):
    return _sha(canonical_json(strip_witnesses(json.loads(text))))


LIBRARY_CASES = [(f, n, b) for f in LIBRARY for n in ("T2", "F", "D", "D2") for b in (1, 2, 3)]
CLI_CASES = [
    (c, n)
    for c in ("aperiodic", "simple", "cofinal", "validate", "ideals")
    for n in ("T2", "F", "D", "D2")
]


@pytest.mark.parametrize("func,name,bound", LIBRARY_CASES)
def test_library_output_unchanged(func, name, bound):
    assert _sha(library_text(func, name, bound)) == DIGESTS[f"{func} {name} {bound}"]


@pytest.mark.parametrize("command,name", CLI_CASES)
def test_cli_output_unchanged(command, name):
    assert _sha(cli_text(command, name)) == DIGESTS[f"kgraph {command} {name}"]


@pytest.mark.parametrize("func,name,bound", LIBRARY_CASES)
def test_library_output_unchanged_but_witnesses(func, name, bound):
    assert stripped_digest(library_text(func, name, bound)) == STRIPPED[f"{func} {name} {bound}"]


@pytest.mark.parametrize("command,name", CLI_CASES)
def test_cli_output_unchanged_but_witnesses(command, name):
    assert stripped_digest(cli_text(command, name)) == STRIPPED[f"kgraph {command} {name}"]


def stdin_text(argv, text):
    out = io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            main(argv)
    finally:
        sys.stdin = stdin
    return out.getvalue()


@functools.cache
def generated(name):
    """A generated product and its interchange document."""
    g = BUILD_GRAPHS[name]()
    return g, dump_graph_document(g.skeleton, g.squares)


def build_text(command, name):
    if name in BROKEN_TABLES:
        source, edit = BROKEN_TABLES[name]
        doc = json.loads(json.dumps(generated(source)[1]))
        edit(doc["squares"])
        return stdin_text([command, "-"], canonical_json(doc))
    g, doc = generated(name)
    argv = [command, "-"]
    if command == "quotient":
        argv += ["--set", ",".join(sorted(least_singleton_obstruction(g) or ()))]
    return stdin_text(argv, canonical_json(doc))


BUILD_CASES = [(c, n) for n in BUILD_GRAPHS for c in ("validate", "cofinal", "quotient")]
BUILD_CASES += [("validate", n) for n in BROKEN_TABLES]


@pytest.mark.parametrize("command,name", BUILD_CASES)
def test_build_side_output_unchanged(command, name):
    assert _sha(build_text(command, name)) == BUILD_DIGESTS[f"kgraph {command} {name}"]
