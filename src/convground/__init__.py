"""convground: track conversational grounding in information-seeking dialogues.

The pipeline classifies grounding acts per turn, extracts tabular knowledge
facts, commits them to a shared knowledge base through an assessment/merge
protocol, and evaluates predictions against gold annotations.
"""

from . import fixtures
from .assessment import (
    AssessmentOutcome,
    GraphOp,
    OpKind,
    StateError,
    Verdict,
    assess,
    commit,
    merge,
    plan_ops,
)
from .dialogue import (
    CorpusError,
    Dialogue,
    GoldAnnotation,
    GroundingLabel,
    Role,
    Turn,
    load_dialogues,
    load_gold,
    save_annotations,
)
from .engine import (
    GroundingState,
    present,
    process_dialogue,
    step,
)
from .evaluation import (
    CoverageError,
    EvalReport,
    KnowledgeVerdict,
    ReportFormat,
    render_report,
    score,
)
from .judge import fact_equivalent, knowledge_equivalent
from .knowledge import (
    EMPTY_KNOWLEDGE,
    ColumnKnowledge,
    Fact,
    FactKey,
    GroundedKnowledge,
    facts,
    knowledge_from_facts,
    normalize_term,
    terms_equivalent,
)
from .llm import (
    CacheMissError,
    CacheMode,
    CompletionRequest,
    CompletionResult,
    ResponseCache,
    complete,
    parse_knowledge_json,
    parse_label,
)
from .prompts import (
    ChatMessage,
    MessageRole,
    build_classification_prompt,
    build_extraction_prompt,
    serialize_history,
)
from .schema import SchemaError, canonicalize

__version__ = "0.1.0"
