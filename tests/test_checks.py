"""Every `ci2d check` property is a tier-1 test, one test id per name."""

import pytest

from ci2d.checks import REGISTRY


@pytest.mark.parametrize("prop", [fn for _, fn in REGISTRY],
                         ids=[name for name, _ in REGISTRY])
def test_property(prop):
    ok, detail = prop()
    assert ok, detail
