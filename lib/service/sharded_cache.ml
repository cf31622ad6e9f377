(* The plan cache's former name: perfbench's replay still calls it on
   [Planner.cache].  Delete it once the replay names [Lru_cache]. *)
include Lru_cache
