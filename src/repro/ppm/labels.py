"""Label vocabulary of operator rows: execution engines, phases and subphases."""

#: Operator execution engines.
ENGINE_MATMUL = "matmul"   # executed on the RMPU / GPU tensor cores
ENGINE_VECTOR = "vector"   # executed on the VVPU / GPU CUDA cores

#: Pipeline phases (Fig. 2a / Fig. 3 breakdown categories).
PHASE_INPUT_EMBEDDING = "input_embedding"
PHASE_SEQUENCE = "sequence_dataflow"
PHASE_PAIR = "pair_dataflow"
PHASE_STRUCTURE = "structure_module"

#: Sub-phases of the pair dataflow used in the Fig. 3 breakdown.
SUBPHASE_BIAS_MLP = "bias_mlp"
SUBPHASE_TRI_MULT = "triangular_multiplication"
SUBPHASE_TRI_ATT = "triangular_attention"
