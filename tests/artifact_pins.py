"""sha256 of each selftest artifact, pinned across versions.

The acceptance criteria check the selftest's artifacts against these, and
the command-line tests check the ``--out`` file of each subcommand at its
defaults, which is the same artifact.  Re-pin, with a note, only for a
change meant to move the artifact's numbers.
"""

ARTIFACT_SHA256 = {
    "basins.ppm": "614638fd6571f11dc732a0d659d6ef8cc1ee7c0b4af8dc203923191701cc25d0",
    "fractions.csv": "330e5c5e2a2e9e8abee7d2fed78793d48b1807a1d54daea76471bbf1dcc20f6f",
    "intermingle.csv": "8346d554f085de58daf36b2078795b1c3a716b67a5f1561f59873e7a2451ac5a",
    "separator.csv": "dd0da76d8ee4d7e4bc6176690e784c67fd4c6b0ddc01bef4adaf642e6497e394",
    "histogram.csv": "1e1a0ee98e51a0e32053798adba571076a456cc9a36a6cd9a8d2c7becce3e45e",
    "walk_ratios.csv": "948a19f0781b3ac7be87029bb44dacfd86d953a7294c272674b3ef6959512920",
    "arcsine.csv": "3665d76e52f4c0f821789611abe3fd244f7b1c86c3f889fcbefb4407f4153b98",
    "equidist.csv": "6bd11a6e012a0df28df9f3fe56b45cb12563298f6c891c080868e0ccaa512f1e",
}
