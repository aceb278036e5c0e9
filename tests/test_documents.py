"""The bytes of every catalog document and of six CLI outputs, pinned.

Round trips alone would accept a serializer that changed its layout on both
sides. These digests hold the layout itself: sha256 of
``json.dumps(to_dict(p), sort_keys=True)`` for each catalog protocol, and of
the ``compile`` outputs of the hand-checked circuits and of the ``check``
text output.
"""
import hashlib
import json

import pytest

from ndqv import catalog
from ndqv import sequential as seq
from ndqv.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


STRATEGY_DIGESTS = {
    ("bell", None): "5694bdeca2c6d4d1215486999c87b2426c5941e774233aa638863e598cbdfe0b",
    ("bell_group", None): "449a8f2e71531b3c92c3366c842e18505abcc74b6fa319d994ed49431fdcc096",
    ("two_qubit_three", 0.55): "d3c5afeb6b25a167b2d6b8312613a46e13071e306915b7a7fa7e7dd4c4e6bfba",
    ("two_qubit_four", 0.55): "273998420407bbf17369051b976c5561dee44bcc2adb446a25b40bc419ab9165",
    ("adaptive_two", 0.55): "7e367237d87b6d1f77c92b77e899153db8e6d5c578766ff79bc165f40bf9e09f",
    ("adaptive_three", 0.55): "bd34336ea64160cdb38efdaaf94149e3478384755ded01b6028d9311ab892dc6",
    ("ghz3", None): "892c21ad09f2a0fc4f3e5e327248405ba4cac0af6db8fbd24973fd42e7539af3",
    ("ghz4", None): "0ea1fe4fa8e7ac23026cfa65cd36b6065a87057cc95ae02d86e4f41c96e6fcd8",
    ("ghz3_group", None): "f48d1b741c2d84714d539d331b73203a22706af4cfaa0d0371663ac049de284f",
}

SEQUENTIAL_DIGESTS = {
    ("bell", None, "toffoli"): "f6b8e2b781adc04cdf716fe52ac76f660811031918b034a2881fb22200193fa4",
    ("two_qubit_three", 0.55, "toffoli"): "b597cfdb65cdfd84c179d9d7a549db2e1ff53bbe0456738435d26ec34daf4a1b",
    ("two_qubit_three", 0.55, "cnot_pair"): "3a4b24d2852d6beadc19baf4ea9be9b35ab0fe8ca8e2d18768b6d79cccdcc271",
    ("adaptive_two", 0.55, "toffoli"): "16080c9e7e4428a04813b1e36c166b33ca5e73fe755c4e7d02e69cde9b2385ff",
    ("ghz3", None, "toffoli"): "7e0a34f1c21d24d7d25c8a3e4f2b5253f45b9d449dfca76141e45656d23ff07e",
    ("ghz4", None, "toffoli"): "0870729e270e01765b0152ce7343b37748c32a545cc3f827d1509367562591e7",
}

CLI_DIGESTS = {
    ("compile", "ghz3"): "ffbe0c8a2405908ebd48301b04ee38677166b2870018e15beb6d8afa0e47dae3",
    ("compile", "bell"): "1e27ba1cd86ca6e56ae83b0aea1945ebf4aefb18c6fb746e2587ab7708e6cc62",
    ("compile", "adaptive_two", "--theta", "0.5"): "366522347935c692268955b2317deea0b49f8d60ea7d270eb5856e32692e5376",
    ("compile", "two_qubit_three", "--theta", "0.55", "--variant", "toffoli"): "80a978e86a9d491942a3a11f2f52a92c890bda571a58fbf87760eaa91e3e2a60",
    ("compile", "two_qubit_three", "--theta", "0.55", "--variant", "cnot_pair"): "80b94edd71cd53f40f386c14ddd319088cac0deb621cebf00a9e1f9cbd1c7b22",
    ("check", "--format", "text"): "6d1e34e78bc77d6a019f1a252725f1b5ee8776d7425820447d9e95af730300dd",
}


@pytest.mark.parametrize("name, theta", list(STRATEGY_DIGESTS))
def test_strategy_document_bytes(name, theta):
    doc = seq.protocol_to_dict(catalog.build_strategy(name, theta))
    assert _sha(json.dumps(doc, sort_keys=True)) == STRATEGY_DIGESTS[name, theta]


@pytest.mark.parametrize("name, theta, variant", list(SEQUENTIAL_DIGESTS))
def test_sequential_document_bytes(name, theta, variant):
    doc = seq.protocol_to_dict(catalog.build_sequential(name, theta, variant))
    assert _sha(json.dumps(doc, sort_keys=True)) == SEQUENTIAL_DIGESTS[name, theta, variant]


@pytest.mark.parametrize("argv", list(CLI_DIGESTS), ids=" ".join)
def test_cli_output_bytes(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha(capsys.readouterr().out) == CLI_DIGESTS[argv]
