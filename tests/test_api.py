from __future__ import annotations

import gar

# A change that grows or shrinks the public API edits this count and says why.
PUBLIC_NAMES = 59


def test_public_api_is_pinned():
    assert len(gar.__all__) == len(set(gar.__all__)), "a name appears twice in gar.__all__"
    missing = [name for name in gar.__all__ if not hasattr(gar, name)]
    assert not missing, f"names in gar.__all__ that do not resolve: {missing}"
    assert len(gar.__all__) == PUBLIC_NAMES
