"""Execute the README's code walkthroughs verbatim.

The "Quick tour" and "Encrypted inference" sections promise code a
reader can paste and run; these tests extract their fenced python
blocks straight out of ``README.md`` and ``exec`` them in order, so the
docs cannot drift from the public API they advertise.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _section(text: str, heading: str) -> str:
    start = text.index(f"## {heading}")
    rest = text[start + 3 :]
    end = rest.find("\n## ")
    return rest if end < 0 else rest[:end]


def _run_section(heading: str) -> dict:
    """Run every python block of one README section in one namespace."""
    blocks = _FENCE.findall(_section(README.read_text(), heading))
    assert blocks, f"the {heading} section lost its code blocks"
    namespace: dict = {"__name__": "readme_walkthrough"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)  # noqa: S102
    return namespace


def test_quick_tour_runs_verbatim():
    namespace = _run_section("Quick tour")
    # both blocks ran: the scheme-layer plan and the key-switch pair
    assert "plan" in namespace and "c1" in namespace


def test_encrypted_inference_walkthrough_runs_verbatim():
    namespace = _run_section("Encrypted inference")
    # the walkthrough's own asserts are the real gate; spot-check that
    # it actually got to the end with a served score in hand
    assert "scores" in namespace
