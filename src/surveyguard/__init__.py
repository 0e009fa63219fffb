"""surveyguard: screen open-ended survey responses for likely AI-generated content.

Two complementary detectors are provided. The zero-shot detector asks a chat
model directly whether a response was AI-written. The signature detector
pre-generates reference answers per question over a model/temperature grid,
embeds everything, and flags responses whose maximum cosine similarity to any
signature meets a threshold; near-zero or negative maxima mark off-topic
responses. The package re-exports just the names README's "Library use"
example imports; everything else is imported from its module.
"""

from .dataset import load_dataset
from .gateway import DiskCache, ProviderGateway
from .providers import MockChatProvider, MockEmbeddingProvider
from .scoring import score_response
from .signatures import StrategyKind, generate_signatures

__version__ = "0.1.0"
