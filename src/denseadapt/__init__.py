"""Unsupervised domain adaptation of dense retrievers at desk scale.

The pipeline: generate synthetic queries for a target corpus, mine hard
negatives with lexical and dense retrievers, pseudo-label (query, positive,
negative) tuples with a cross-encoder margin, and fine-tune a bi-encoder to
regress those margins. Also ships the in-batch ranking baseline, six
pre-training objectives, and trec-style evaluation.
"""

from .corpus import (DuplicateIdError, ParseError, Passage, Qrels, Query,
                     downsample_corpus, load_corpus, load_qrels, load_queries,
                     passage_text, save_corpus, save_qrels, save_queries,
                     tokenize)
from .evaluation import (EvalReport, RunRanking, ce_rerank, evaluate,
                         full_rank, mrr_at_k, ndcg_at_k, write_trec_run)
from .labeling import (GPLDataset, TupleColumns, build_dataset, read_dataset,
                       sample_tuple, write_dataset)
from .mining import (BM25Index, BM25Retriever, DenseRetriever, PoolColumns,
                     build_bm25_index, mine_pools, read_hard_negatives,
                     retrieve_top_k, write_hard_negatives)
from .models import (CrossEncoderScorer, EncoderModel, QueryGenerator,
                     apply_gradients, encode_batch, init_encoder,
                     lexical_overlap_ce, load_model, save_model)
from .pipeline import (CacheManifest, PipelineConfig, PipelineError,
                       parse_method, run_pipeline, run_stage)
from .pretraining import (PretrainConfig, condensor_loss, ct_step,
                          ict_example, mlm_corrupt, pretrain,
                          simcse_pairs, simcse_step, split_sentences,
                          tsdae_corrupt, tsdae_loss, udalm_step)
from .qgen import (GenerationBudget, SamplerConfig, compute_budget,
                   generate_queries, mock_generator, nucleus_filter,
                   write_gen_qrels)
from .training import (LossConfig, TrainRunConfig, gpl_train,
                       margin_mse_loss, mnrl_loss, qgen_train)

__version__ = "0.1.0"
