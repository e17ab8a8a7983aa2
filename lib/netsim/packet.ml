(* Fields are mutable so a sender can recycle acknowledged packets
   through a free pool instead of allocating a fresh record per
   transmission. A packet object must only be mutated by its owning
   sender, and only once no queue or lane holds it. *)
type stamps = {
  mutable sent_time : float;
  mutable delivered : float;
  mutable delivered_time : float;
}

type t = {
  mutable flow : int;
  mutable seq : int;
  mutable size : int;
  mutable retransmit : bool;
  ts : stamps;
}

let[@simlint.alloc_ok
     "pool growth only: senders recycle packets through a free pool and \
      call make when it runs dry"] make ~flow ~seq ~size ~retransmit
    ~sent_time ~delivered ~delivered_time =
  { flow; seq; size; retransmit; ts = { sent_time; delivered; delivered_time } }

let dummy =
  { flow = -1; seq = -1; size = 0; retransmit = false;
    ts = { sent_time = 0.0; delivered = 0.0; delivered_time = 0.0 } }

let pp ppf p =
  Format.fprintf ppf "flow=%d seq=%d size=%d%s t=%.6f" p.flow p.seq p.size
    (if p.retransmit then " retx" else "")
    p.ts.sent_time
