"""The byte-identity oracle: the pipeline still writes what tests/golden/manifest.json records.

A change that moves bytes on purpose writes the manifest again with
``python tests/golden/regen.py`` and says why; see that script.
"""

import json

from golden import regen


def test_pipeline_bytes_match_the_golden_manifest(tmp_path):
    expected = json.loads(regen.MANIFEST.read_text(encoding="utf-8"))
    here = regen.platform_info()
    assert here == expected["platform"], (
        f"the golden manifest was written on {expected['platform']}, this is {here}; "
        "score bits are pinned per machine and NumPy build, so write it again on this "
        "platform from an unchanged tree (tests/golden/regen.py)"
    )
    moved = regen.differences(expected, regen.build_manifest(tmp_path))
    assert moved == [], "\n".join(moved)
