"""Source-code ownership routing (§V-A).

LeakProf "determines source code ownership and alerts the owners".  Here
ownership is a longest-prefix-match table from source paths to teams, the
shape CODEOWNERS-style systems use.
"""

from __future__ import annotations

from typing import Dict, Optional


class OwnershipRouter:
    """Longest-prefix routing from source locations to owning teams."""

    def __init__(
        self, rules: Optional[Dict[str, str]] = None, default: str = "unowned"
    ):
        self._rules = dict(rules or {})
        self._default = default

    def route(self, location: str) -> str:
        """Owner team for a ``file:line`` location (or bare path)."""
        path = location.rsplit(":", 1)[0]
        best_len = -1
        owner = self._default
        for prefix, team in self._rules.items():
            if path.startswith(prefix) and len(prefix) > best_len:
                best_len = len(prefix)
                owner = team
        return owner
