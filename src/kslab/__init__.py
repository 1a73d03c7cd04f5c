"""k-server advice-complexity laboratory."""
