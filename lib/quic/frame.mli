(** The 20 QUIC frame types (RFC 9000 §19, draft-29 numbering) with
    their wire encodings. Frames are the unit of signalling in QUIC;
    packets merely transport them (paper §6.2.1). *)

type t =
  | Padding of int  (** run length of 0x00 bytes *)
  | Ping
  | Ack of { largest : int; delay : int; first_range : int }
      (** single-range ACK (the simulated link never reorders) *)
  | Reset_stream of { stream_id : int; error : int; final_size : int }
  | Stop_sending of { stream_id : int; error : int }
  | Crypto of { offset : int; data : string }
  | New_token of string
  | Stream of { id : int; offset : int; data : string; fin : bool }
  | Max_data of int
  | Max_stream_data of { stream_id : int; max : int }
  | Max_streams of { bidi : bool; max : int }
  | Data_blocked of int
  | Stream_data_blocked of { stream_id : int; max : int }
  | Streams_blocked of { bidi : bool; max : int }
  | New_connection_id of {
      seq : int;
      retire_prior : int;
      cid : string;
      reset_token : string;
    }
  | Retire_connection_id of int
  | Path_challenge of string  (** 8 bytes *)
  | Path_response of string  (** 8 bytes *)
  | Connection_close of { error : int; frame_type : int; reason : string; app : bool }
  | Handshake_done

(** Frame classification used by abstract alphabets: one constructor
    per RFC frame type, parameters erased. *)
type kind =
  | K_padding
  | K_ping
  | K_ack
  | K_reset_stream
  | K_stop_sending
  | K_crypto
  | K_new_token
  | K_stream
  | K_max_data
  | K_max_stream_data
  | K_max_streams
  | K_data_blocked
  | K_stream_data_blocked
  | K_streams_blocked
  | K_new_connection_id
  | K_retire_connection_id
  | K_path_challenge
  | K_path_response
  | K_connection_close
  | K_handshake_done

val kind : t -> kind
val kind_to_string : kind -> string
val all_kinds : kind list
(** All 20 kinds. *)

val pp : Format.formatter -> t -> unit

val ack : int -> t
(** [ack largest]: [Ack { largest; delay = 0; first_range = 0 }], one
    shared value per packet number below 64. *)

val is_ack_eliciting : t -> bool
(** Every frame except ACK, PADDING and CONNECTION_CLOSE elicits an
    acknowledgement (RFC 9002). *)

val encoded_length : t list -> int
(** The exact number of bytes {!write_all} writes for these frames. *)

val write_all : Bytes.t -> int -> t list -> int
(** [write_all b off frames] encodes the frames into [b] from [off] and
    returns the offset after them: a packet encoder writes its payload
    in place behind the header. *)

val encode_all : t list -> string

val decode_all : string -> (t list, string) result
(** Parses a packet payload into frames; adjacent PADDING bytes are
    coalesced into one [Padding] frame. *)
