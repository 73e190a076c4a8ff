(** Tab-separated source files.

    The generator writes the synthetic crawl as TSV files (one per
    node/edge type), and each engine's batch importer reads them back
    — mirroring the paper's setup where "the same source files
    containing the nodes and edges were used with both databases". *)

val escape : string -> string
(** Escape tabs, newlines and backslashes so a field stays on one
    line. *)

val unescape : string -> string
(** Inverse of {!escape}. *)

val write_row : out_channel -> string list -> unit
(** Write one escaped row terminated by a newline. *)

val read_rows : string -> (string list -> unit) -> int
(** [read_rows path f] streams every row of [path] through [f],
    returning the row count. Fields are unescaped. Raises [Sys_error]
    if the file cannot be read. *)
