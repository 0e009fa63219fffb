"""surveyguard: screen open-ended survey responses for likely AI-generated content.

Two complementary detectors are provided. The zero-shot detector asks a chat
model directly whether a response was AI-written. The signature detector
pre-generates reference answers per question over a model/temperature grid,
embeds everything, and flags responses whose maximum cosine similarity to any
signature meets a threshold; near-zero or negative maxima mark off-topic
responses.
"""

from .dataset import (
    ReportFormat,
    SurveyDataset,
    load_dataset,
    write_report,
)
from .detector import (
    DetectorConfig,
    build_detector_prompt,
    detect_batch,
    parse_detector_output,
)
from .errors import ConfigError, DataError, ProviderError, TransientProviderError
from .gateway import (
    CacheKey,
    ChatRequest,
    ChatResult,
    DiskCache,
    EmbeddingVector,
    ProviderGateway,
    PurposeTag,
    build_cache_key,
)
from .model import (
    Cohort,
    LengthStats,
    QuestionKind,
    SurveyQuestion,
    SurveyResponse,
    SurveyStudy,
    Verdict,
    VerdictFlag,
    VerdictSource,
    assign_cohort,
    compute_length_stats,
)
from .providers import (
    MockChatProvider,
    MockEmbeddingProvider,
    OpenAICompatChatProvider,
    OpenAICompatEmbeddingProvider,
)
from .report import (
    AverageConvention,
    Percent,
    StudyStat,
    average_pooled,
    average_unweighted,
    build_histogram,
    cohort_compare,
    extract_cases,
    percentage,
    threshold_sweep,
)
from .scoring import (
    classify_by_threshold,
    cosine_similarity,
    flag_irrelevant,
    score_response,
)
from .signatures import (
    PromptStrategy,
    Sentiment,
    Signature,
    SignatureSet,
    StrategyKind,
    build_basic_prompt,
    build_sentiment_prompt,
    dedupe_signatures,
    generate_signatures,
)

__version__ = "0.1.0"
