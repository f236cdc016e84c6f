from .scoring import BM25Scorer, LMDirichletScorer, make_scorer
from .searcher import IndexReader, SearchStage, score_query_taat
from .service import SearcherPool, retrieve, retrieve_sharded

__all__ = ["BM25Scorer", "LMDirichletScorer", "make_scorer",
           "IndexReader", "SearchStage", "score_query_taat",
           "SearcherPool", "retrieve", "retrieve_sharded"]
