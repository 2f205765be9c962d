import pytest

from neuroplug import model
from neuroplug.attacks import huffduff_attack
from neuroplug.errors import ConfigError, InapplicableError
from neuroplug.model import NetworkSpec
from neuroplug.tracegen import Scenario


@pytest.fixture(scope="module")
def toy_layer0():
    """The first (3x3, pad 1) layer of toy-sparse on its own."""
    return NetworkSpec(layers=model.load_network("toy-sparse").layers[:1])


class TestHuffDuff:
    def test_recovers_filter_on_sparse_baseline(self, toy_layer0):
        report = huffduff_attack(Scenario(net=toy_layer0, cm="none", sparse=True))
        assert report.extra["s_hat"] == 3
        assert report.extra["r_hat"] == 3

    def test_dense_baseline_inapplicable(self, toy_layer0):
        with pytest.raises(InapplicableError):
            huffduff_attack(Scenario(net=toy_layer0, cm="none", sparse=False))

    @pytest.mark.parametrize("cm", ["dummy-writes", "const-mean", "layer-divider", "bogus"])
    def test_additive_cm_rejected(self, toy_layer0, cm):
        with pytest.raises(ConfigError):
            huffduff_attack(Scenario(net=toy_layer0, cm=cm, sparse=True))
